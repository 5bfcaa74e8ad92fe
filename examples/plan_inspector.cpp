// plan_inspector: developer CLI for PEEL's data plane.
//
// Prints, for a chosen fat-tree degree and destination rack list, everything
// a switch operator would install and everything a sender would emit:
// the static rule table summary, the group's prefix cover, header encoding,
// and the redundancy accounting for exact vs compact covers.
//
// Usage: plan_inspector [k] [pod:rack pod:rack ...]
//   e.g. plan_inspector 8 0:2 0:3 1:0 1:1
// With no racks given, reproduces the paper's §3.2 example (an 8-ToR pod,
// racks 010..111).
#include <cstdio>
#include <cstring>

#include "src/harness/bench_env.h"
#include "src/prefix/cover.h"
#include "src/prefix/prefix.h"

using namespace peel;

namespace {

int run_example(int argc, char** argv) {
  const int k = argc > 1 ? parse_number<int>(argv[1], "k") : 16;
  if (k < 4 || k % 2) {
    std::fprintf(stderr, "k must be even and >= 4\n");
    return 1;
  }
  const int m = id_bits(k / 2);

  std::printf("fat-tree degree k=%d: %d pods, %d ToRs/pod, %lld hosts\n", k, k,
              k / 2, static_cast<long long>(k) * k * k / 4);
  std::printf("static state per aggregation switch: %zu prefix rules "
              "(installed once)\n", rule_count(m));
  std::printf("naive IP-multicast worst case: %.3g entries\n",
              naive_multicast_entries(k));
  std::printf("header: %d bits per ⟨value,len⟩ tuple (%d B budget: %s)\n\n",
              tuple_header_bits(m), 8,
              tuple_header_bits(m) <= 64 ? "fits" : "EXCEEDED");

  // Destination racks, grouped by pod.
  std::vector<std::vector<int>> racks_by_pod(static_cast<std::size_t>(k));
  if (argc > 2) {
    for (int i = 2; i < argc; ++i) {
      int pod = 0, rack = 0;
      if (std::sscanf(argv[i], "%d:%d", &pod, &rack) != 2 || pod < 0 || pod >= k ||
          rack < 0 || rack >= k / 2) {
        std::fprintf(stderr, "bad rack spec '%s' (want pod:rack)\n", argv[i]);
        return 1;
      }
      racks_by_pod[static_cast<std::size_t>(pod)].push_back(rack);
    }
  } else {
    // §3.2 walk-through: an 8-ToR pod, racks 010,011,100,101,110,111
    // (the paper calls it an "8-ary pod": 8 ToRs, i.e. k=16).
    racks_by_pod[0] = {2, 3, 4, 5, 6, 7};
  }

  for (int pod = 0; pod < k; ++pod) {
    const auto& racks = racks_by_pod[static_cast<std::size_t>(pod)];
    if (racks.empty()) continue;
    std::printf("pod %d, %zu destination rack(s):\n", pod, racks.size());
    const MemberSet members = make_member_set(racks, m);

    const auto exact = exact_cover(members, m);
    std::printf("  exact cover (%zu packet(s)):", exact.size());
    for (const auto& p : exact) {
      std::printf("  %s/%d (wire 0x%x)", p.to_string(m).c_str(), p.length,
                  encode_tuple(p, m));
    }
    std::printf("\n");

    const auto compact = bounded_cover(members, m, 1);
    std::printf("  compact cover (1 packet): %s/%d, %d over-covered rack(s)\n",
                compact.prefixes[0].to_string(m).c_str(),
                compact.prefixes[0].length, compact.redundant);

    // What the aggregation switch does with each exact-cover packet.
    const PrefixRuleTable table(m, k / 2);
    for (const auto& p : exact) {
      const auto& ports = table.match(p);
      std::printf("  rule %s -> replicate to ToR ports {", p.to_string(m).c_str());
      for (std::size_t i = 0; i < ports.size(); ++i) {
        std::printf("%s%d", i ? "," : "", ports[i]);
      }
      std::printf("}\n");
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::guarded_main("plan_inspector",
                             [&] { return run_example(argc, argv); });
}

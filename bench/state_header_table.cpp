// §1/§3.2 headline numbers: switch state and header size vs fat-tree degree.
//
// "In a 64-ary fat-tree (65,536 hosts) our prototype uses just 63 rules,
// down from four billion — and adds less than 8 B per packet."
#include <cstdio>
#include <iostream>

#include "src/common/csv.h"
#include "src/harness/bench_env.h"
#include "src/harness/table.h"
#include "src/prefix/prefix.h"

using namespace peel;

namespace {

int run_bench() {
  bench::banner("Switch state & header size vs k", "§1, §3.2 headline numbers");

  Table table({"k", "hosts", "ToRs/pod", "PEEL rules/agg", "naive entries",
               "header bits", "header bytes"});
  CsvWriter csv("state_header_table.csv",
                {"k", "hosts", "peel_rules", "naive_entries", "header_bits"});

  for (int k : {4, 8, 16, 32, 64, 128}) {
    const int m = id_bits(k / 2);
    const std::size_t rules = rule_count(m);
    const double naive = naive_multicast_entries(k);
    const int bits = fat_tree_header_bits(k);
    const long long hosts = static_cast<long long>(k) * k * k / 4;
    table.add_row({cell("%d", k), cell("%lld", hosts), cell("%d", k / 2),
                   cell("%zu", rules), cell("%.3g", naive), cell("%d", bits),
                   cell("%d", (bits + 7) / 8)});
    csv.row({std::to_string(k), std::to_string(hosts), std::to_string(rules),
             cell("%.6g", naive), std::to_string(bits)});

    // Construct the actual rule table to prove the count is real, not just
    // the closed form.
    const PrefixRuleTable concrete(m, k / 2);
    if (concrete.size() != rules) {
      std::printf("ERROR: constructed table has %zu rules, expected %zu\n",
                  concrete.size(), rules);
      return 1;
    }
  }
  table.print(std::cout);
  std::printf("\nheadline check: k=64 -> %zu rules (paper: 63) vs %.3g naive "
              "(paper: >4e9); k=128 header %d bits (< 8 B).\n",
              rule_count(id_bits(32)), naive_multicast_entries(64),
              fat_tree_header_bits(128));
  std::printf("CSV -> state_header_table.csv\n");
  return 0;
}

}  // namespace

int main() { return bench::guarded_main("state_header_table", run_bench); }

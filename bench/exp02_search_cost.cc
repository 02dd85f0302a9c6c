// Exp#2 — configuration search cost (paper Figure 8).
//
// Compares Aceso's search cost against the Alpa-like solver across the
// GPT-3 and Wide-ResNet ladders. Aceso's cost is its (budgeted) anytime
// search; Alpa's is solver wall-clock plus the on-demand XLA
// compile-and-profile time its search design requires per experiment.
// Megatron-LM is omitted, as in the paper: it has no automated search.
//
// Paper claim to reproduce in shape: "Among all the cases, Aceso uses less
// than 5% of the time used by Alpa."

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/bench_util.h"

namespace aceso {
namespace bench {
namespace {

void RunFamily(const std::string& prefix, const std::vector<double>& sizes,
               TablePrinter& table) {
  for (size_t i = 0; i < sizes.size(); ++i) {
    char size_buf[32];
    std::snprintf(size_buf, sizeof(size_buf), "%g", sizes[i]);
    const std::string model_name = prefix + size_buf + "b";
    const int gpus = models::GpusForSizeIndex(static_cast<int>(i));
    Workload workload(model_name, gpus);

    SearchOptions options = DefaultSearchOptions();
    const SearchResult aceso = AcesoSearch(workload.model(), options);
    const auto alpa = AlpaLikeSearch(workload.model());

    std::string alpa_cell = "failed";
    std::string ratio_cell = "n/a";
    if (alpa.ok() && alpa->found) {
      alpa_cell = FormatDouble(alpa->TotalSearchSeconds(), 1);
      ratio_cell = FormatDouble(
          100.0 * aceso.search_seconds / alpa->TotalSearchSeconds(), 2);
      ratio_cell += "%";
    }
    table.AddRow({model_name + " @" + std::to_string(gpus) + "gpu",
                  FormatDouble(aceso.search_seconds, 1), alpa_cell,
                  ratio_cell});
  }
}

}  // namespace
}  // namespace bench
}  // namespace aceso

int main() {
  using namespace aceso;
  using namespace aceso::bench;
  PrintHeader("Exp#2: search cost (Figure 8)",
              "Aceso uses less than 5% of Alpa's search time in every case");
  TablePrinter table(
      {"setting", "Aceso search(s)", "Alpa search(s)", "Aceso/Alpa"});
  RunFamily("gpt3-", GptSizes(), table);
  RunFamily("wresnet-", WrnSizes(), table);
  table.Print(std::cout);
  std::printf(
      "\nNote: Alpa's cost includes its per-experiment on-demand XLA kernel\n"
      "compilation+profiling (simulated; see DESIGN.md); Aceso's shared\n"
      "profiled database is built once per model family and excluded, as in\n"
      "the paper.\n");
  return 0;
}

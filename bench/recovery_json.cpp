// E19 — recovery-time campaign trajectory: the self-stabilization guarantee
// measured as recovery time after k injected faults, for the four runnable
// Table-1 protocols, two ring sizes, two fault counts and two fault-schedule
// shapes (one burst vs a spaced storm), on the scenario campaign engine
// (analysis/scenario.hpp) executed by service::run_campaign.
//
// Writes BENCH_recovery.json (schema documented in README.md) so the
// recovery trajectory is tracked per-commit next to BENCH_throughput.json.
// Knobs: PPSIM_TRIALS (trials per cell), PPSIM_MAX_N (drops ring sizes above
// it), PPSIM_C1 (P_PL's kappa constant), PPSIM_THREADS, PPSIM_BENCH_DIR.
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/adversary.hpp"
#include "analysis/scenario.hpp"
#include "bench_util.hpp"
#include "core/table.hpp"
#include "pl/params.hpp"
#include "pl/protocol.hpp"
#include "service/campaign.hpp"

namespace {

using namespace ppsim;

struct Cell {
  std::string protocol;
  analysis::CampaignResult result;
};

constexpr std::uint64_t kSeedBase = 47;

std::uint64_t recovery_budget(int n) {
  const auto n_u = static_cast<std::uint64_t>(n);
  // Covers the Theta(n^3) baseline and P_PL's Theta(n^2 kappa) detection
  // path at the sizes swept here.
  return 60'000ULL * n_u * n_u + 60'000'000ULL;
}

/// Campaign for one protocol: {burst, storm} x ns x fault counts.
template <typename P>
std::vector<Cell> run_protocol(const std::string& name, std::uint64_t tag_base,
                               const std::vector<typename P::Params>& params,
                               const std::vector<int>& fault_counts,
                               int trials) {
  std::vector<std::pair<typename P::Params, analysis::ScenarioSpec<P>>> cells;
  for (const auto& p : params) {
    for (int f : fault_counts) {
      analysis::TrialPlan plan;
      plan.trials = trials;
      plan.max_steps = recovery_budget(p.n);
      plan.seed_base = kSeedBase;
      for (int storm = 0; storm < 2; ++storm) {
        plan.tag = analysis::campaign_tag((tag_base << 1) | storm, p.n, f);
        auto schedule =
            storm ? analysis::storm_schedule(
                        f, static_cast<std::uint64_t>(p.n))
                  : analysis::burst_schedule(f);
        cells.emplace_back(
            p, analysis::make_recovery_scenario<P>(
                   storm ? "storm" : "burst", std::move(schedule), plan));
      }
    }
  }
  std::vector<Cell> out;
  for (auto& r : service::run_campaign<P>(std::move(cells))) {
    out.push_back(Cell{name, std::move(r)});
  }
  return out;
}

}  // namespace

int main() {
  using namespace ppsim;
  bench::banner("Recovery-time campaign — faults injected mid-run",
                "self-stabilization (Def. 2.1) as recovery after k faults");

  const int trials = bench::env_int("PPSIM_TRIALS", 7);
  const int max_n = bench::env_int("PPSIM_MAX_N", 64);
  const int c1 = bench::env_int("PPSIM_C1", 4);

  std::vector<int> ns;
  for (int n : {32, 64})
    if (n <= max_n) ns.push_back(n);
  const std::vector<int> fault_counts{1, 4};

  std::vector<Cell> cells;
  {
    std::vector<pl::PlParams> ps;
    for (int n : ns) ps.push_back(pl::PlParams::make(n, c1));
    const auto r = run_protocol<pl::PlProtocol>("P_PL", 1, ps, fault_counts,
                                                trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }
  {
    std::vector<baselines::FjParams> ps;
    for (int n : ns) ps.push_back(baselines::FjParams::make(n));
    const auto r = run_protocol<baselines::FischerJiang>(
        "fischer_jiang", 2, ps, fault_counts, trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }
  {
    std::vector<baselines::ModkParams> ps;
    for (int n : ns) ps.push_back(baselines::ModkParams::make(n + 1, 2));
    const auto r = run_protocol<baselines::Modk>("modk", 3, ps, fault_counts,
                                                 trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }
  {
    std::vector<baselines::Y28Params> ps;
    for (int n : ns) ps.push_back(baselines::Y28Params::make(n));
    const auto r = run_protocol<baselines::Yokota28>("yokota28", 4, ps,
                                                     fault_counts, trials);
    cells.insert(cells.end(), r.begin(), r.end());
  }

  core::Table t({"protocol", "scenario", "n", "faults", "median recovery",
                 "p90", "fail"});
  for (const Cell& c : cells) {
    const auto& s = c.result.stats;
    t.add_row({c.protocol, c.result.scenario,
               core::fmt_u64(static_cast<unsigned long long>(c.result.n)),
               core::fmt_u64(static_cast<unsigned long long>(c.result.faults)),
               core::fmt_double(s.recovery.median, 4),
               core::fmt_double(s.recovery.p90, 4),
               core::fmt_u64(static_cast<unsigned long long>(
                   s.recovery_failures + s.stabilization_failures))});
  }
  t.print(std::cout);

  const std::string path = bench::bench_json_path("recovery");
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return 1;
  }
  bench::JsonWriter w(f);
  w.begin_object();
  w.field("bench", "recovery");
  w.field("schema_version", 1);
  w.field("unit", "steps_to_reenter_safe_set");
  w.field("trials", trials);
  w.field("seed_base", kSeedBase);
  w.key("results");
  w.begin_array();
  for (const Cell& c : cells) {
    const auto& s = c.result.stats;
    w.begin_object();
    w.field("protocol", c.protocol);
    w.field("scenario", c.result.scenario);
    w.field("n", c.result.n);
    w.field("faults", c.result.faults);
    w.field("stabilization_failures", s.stabilization_failures);
    w.field("recovery_failures", s.recovery_failures);
    w.field("median", s.recovery.median);
    w.field("mean", s.recovery.mean);
    w.field("p90", s.recovery.p90);
    w.field("max", s.recovery.max);
    w.key("raw");
    w.begin_array();
    for (std::uint64_t v : s.raw) w.value(v);
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.finish();
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
  return 0;
}

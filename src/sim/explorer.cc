#include "explorer.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.hh"
#include "sim/schedule.hh"

namespace hintm
{
namespace sim
{

ExploreReport
exploreSchedules(const MachineConfig &cfg0, const tir::Module &module,
                 unsigned num_threads, const ExploreOptions &opt)
{
    HINTM_ASSERT(!cfg0.scheduleController,
                 "explorer installs its own schedule controller");
    PlanScheduleController ctrl;
    MachineConfig cfg = cfg0;
    cfg.journal = true; // trace_check reconciles journal totals
    cfg.scheduleController = &ctrl;

    ExploreReport rep;
    TraceCheckOptions chk;
    chk.livelockThreshold = opt.livelockThreshold;
    const std::uint64_t max_schedules =
        opt.maxSchedules ? opt.maxSchedules
                         : std::numeric_limits<std::uint64_t>::max();

    // Replay @p plan in a fresh machine, pushing its child plans (the
    // plan plus one later preemption) onto @p children and its issues
    // onto the report. Children only extend to the right of the last
    // preemption — the canonical iterative-context-bounding
    // enumeration, which visits every plan once.
    using Plan = std::vector<std::uint32_t>;
    const auto run_one = [&](const Plan &plan, std::vector<Plan> &children) {
        const bool branchable = plan.size() < opt.preemptionBound;
        const std::uint32_t after = plan.empty() ? 0 : plan.back() + 1;
        ctrl.hook = [&](const SchedDecision &d, std::uint32_t idx) {
            if (!branchable || idx < after)
                return;
            if (idx >= opt.maxBranchPoints) {
                ++rep.branchesCapped;
                return;
            }
            ++rep.branchPoints;
            if (opt.dpor && !d.dependent) {
                ++rep.branchesPruned;
                return;
            }
            Plan c = plan;
            c.push_back(idx);
            children.push_back(std::move(c));
        };
        ctrl.reset(plan);
        RunResult r = runMachine(cfg, module, num_threads);
        ctrl.hook = nullptr;
        ++rep.schedulesRun;
        for (TraceViolation &v : checkTrace(cfg, r, chk))
            rep.issues.push_back({std::move(v), plan, ctrl.nextIndex()});
        return r;
    };

    // Base trace: the reference interleaving (no preemptions). Its
    // final globals become the determinism reference for every branch.
    std::vector<Plan> stack;
    const RunResult base = run_one({}, stack);
    if (opt.compareFinalState)
        chk.referenceGlobals = &base.finalGlobals;

    // Depth first: the top-level branches in decision order (hence the
    // reversal), each subtree latest child first.
    std::reverse(stack.begin(), stack.end());
    while (!stack.empty()) {
        if (rep.schedulesRun >= max_schedules) {
            rep.branchesCapped += stack.size();
            break;
        }
        const Plan plan = std::move(stack.back());
        stack.pop_back();
        run_one(plan, stack);
    }
    return rep;
}

} // namespace sim
} // namespace hintm

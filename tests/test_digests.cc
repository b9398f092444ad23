/**
 * @file
 * The digest table: one fnv1a(encodeRunResult) value per simulated
 * configuration, checked in as tests/digests.txt. It gates changes to
 * code that every equivalence property shares on both of its sides
 * (the replacement policy, the TLB, the page memo): such a change must
 * leave every row's full RunResult encoding unchanged.
 *
 * Rows:
 *  - every kernel x P8/P8S/L1TM/InfCap x Baseline/Full x 8/32/64
 *    contexts at Tiny, the 32/64-context machines with fig_scale's NUMA
 *    split (one home node per 16 cores);
 *  - every kernel on L1TM with 2-way SMT, 8 threads on 4 cores (the
 *    Fig. 8 shape, where L1 pins cross contexts), Baseline/Full, at Tiny
 *    and at Small;
 *  - intruder, kmeans and vacation on 64 contexts at Small, P8
 *    Baseline/Full with the same NUMA split: long fallback-lock convoys
 *    (Baseline commits 95%, 93% and 99.6% of their TXs through the
 *    lock), where parked lock waiters do most of the scheduling;
 *  - every kernel on P8 and P8S with a 4-entry TX buffer and a 64-bit
 *    signature, 8 contexts at Tiny, Baseline/Full: P8 aborts on
 *    capacity and P8S spills into its signature, which no
 *    default-sized Tiny row does (there P8, P8S, L1TM and InfCap share
 *    one digest).
 *
 * On a mismatch the test writes the table it computed to
 * digests.computed.txt next to its binary, so re-recording a deliberate
 * change is a copy over tests/digests.txt.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_util.hh"
#include "../bench/result_store.hh"

using namespace hintm;

namespace
{

struct Row
{
    std::string label;
    std::size_t workload; ///< index into the prepared workloads
    core::SystemOptions opts;
};

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::map<std::string, std::string>
readTable(const std::string &path)
{
    std::map<std::string, std::string> table;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string label, digest;
        ls >> label >> digest;
        table[label] = digest;
    }
    return table;
}

} // namespace

TEST(DigestTable, EveryRowMatchesTheRecordedTable)
{
    using core::Mechanism;
    using workloads::Scale;
    const std::vector<std::string> &kernels = workloads::allNames();

    std::vector<bench::PreparedWorkload> prepared;
    std::vector<Row> rows;
    auto add = [&](const std::string &label, std::size_t wl,
                   htm::HtmKind kind, Mechanism mech, unsigned cores,
                   unsigned smt, unsigned numa) {
        core::SystemOptions o;
        o.htmKind = kind;
        o.mechanism = mech;
        o.numCores = cores;
        o.smtPerCore = smt;
        o.numaNodes = numa;
        o.collectTxSizes = true;
        o.collectRawStats = true;
        rows.push_back({label + ":" + htm::htmKindName(kind) + ":" +
                            core::mechanismName(mech),
                        wl, o});
    };
    for (const std::string &k : kernels) {
        for (const unsigned ctx : {8u, 32u, 64u}) {
            prepared.push_back(
                bench::prepare(k, Scale::Tiny, ctx == 8 ? 0 : ctx));
            const std::string label =
                k + ":tiny:" + std::to_string(ctx) + "ctx";
            for (const htm::HtmKind kind :
                 {htm::HtmKind::P8, htm::HtmKind::P8S, htm::HtmKind::L1TM,
                  htm::HtmKind::InfCap})
                for (const Mechanism m :
                     {Mechanism::Baseline, Mechanism::Full})
                    add(label, prepared.size() - 1, kind, m, ctx, 1,
                        ctx >= 16 ? ctx / 16 : 1);
        }
        for (const Scale s : {Scale::Tiny, Scale::Small}) {
            prepared.push_back(bench::prepare(k, s, 8));
            const std::string label =
                k + ":" + workloads::scaleLabel(s) + ":4x2smt";
            for (const Mechanism m : {Mechanism::Baseline, Mechanism::Full})
                add(label, prepared.size() - 1, htm::HtmKind::L1TM, m, 4, 2,
                    1);
        }
    }
    for (const std::string k : {"intruder", "kmeans", "vacation"}) {
        prepared.push_back(bench::prepare(k, Scale::Small, 64));
        for (const Mechanism m : {Mechanism::Baseline, Mechanism::Full})
            add(k + ":small:64ctx", prepared.size() - 1, htm::HtmKind::P8, m,
                64, 1, 4);
    }
    for (const std::string &k : kernels) {
        prepared.push_back(bench::prepare(k, Scale::Tiny));
        for (const htm::HtmKind kind : {htm::HtmKind::P8, htm::HtmKind::P8S})
            for (const Mechanism m : {Mechanism::Baseline, Mechanism::Full}) {
                add(k + ":tiny:8ctx:pressure", prepared.size() - 1, kind, m, 8,
                    1, 1);
                rows.back().opts.bufferEntries = 4;
                rows.back().opts.signatureBits = 64;
            }
    }

    std::vector<bench::MatrixJob> jobs;
    for (const Row &r : rows)
        jobs.push_back({&prepared[r.workload], r.opts});
    const std::vector<sim::RunResult> res = bench::runMatrix(jobs);

    const std::map<std::string, std::string> want =
        readTable(HINTM_DIGEST_TABLE);
    std::ostringstream computed;
    computed << "# fnv1a(encodeRunResult) per row of tests/test_digests.cc\n";
    std::size_t mismatched = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const std::string enc = bench::encodeRunResult(res[i]);
        const std::string digest =
            hex64(bench::fnv1a(enc.data(), enc.size()));
        computed << rows[i].label << ' ' << digest << '\n';
        const auto it = want.find(rows[i].label);
        if (it == want.end() || it->second != digest) {
            ++mismatched;
            ADD_FAILURE() << rows[i].label << ": digest " << digest
                          << ", table "
                          << (it == want.end() ? "has no row" : it->second);
        }
    }
    EXPECT_EQ(rows.size(), want.size()) << "the table has rows the test lacks";
    if (mismatched || rows.size() != want.size()) {
        std::ofstream(HINTM_DIGEST_OUT) << computed.str();
        ADD_FAILURE() << "computed table written to " << HINTM_DIGEST_OUT;
    }
}

/**
 * @file
 * Tests for the trace facility: category parsing, spec handling, sink
 * redirection, and that a traced simulation actually emits the expected
 * event lines.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/trace.hh"
#include "core/hintm.hh"
#include "tir/builder.hh"

using namespace hintm;

namespace
{

struct TraceGuard
{
    ~TraceGuard()
    {
        trace::disableAll();
        trace::setSink(nullptr);
    }
};

} // namespace

TEST(Trace, CategoryParsing)
{
    EXPECT_EQ(trace::categoryFromName("tx"), trace::Category::Tx);
    EXPECT_EQ(trace::categoryFromName("vm"), trace::Category::Vm);
    EXPECT_EQ(trace::categoryFromName("sched"), trace::Category::Sched);
    EXPECT_EQ(trace::categoryFromName("journal"),
              trace::Category::Journal);
    EXPECT_THROW(trace::categoryFromName("bogus"), std::runtime_error);
    // Nothing emits tracking or cache events, so there is no category
    // to ask for them.
    EXPECT_THROW(trace::categoryFromName("htm"), std::runtime_error);
    EXPECT_THROW(trace::categoryFromName("mem"), std::runtime_error);
}

TEST(Trace, UnknownCategoryErrorListsValidNames)
{
    try {
        trace::categoryFromName("bogus");
        FAIL() << "expected a fatal error";
    } catch (const std::runtime_error &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("bogus"), std::string::npos) << msg;
        for (const char *name :
             {"tx", "vm", "sched", "journal", "all"})
            EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
}

TEST(Trace, SpecToleratesWhitespace)
{
    TraceGuard guard;
    trace::enableFromSpec(" tx , vm ");
    EXPECT_TRUE(trace::enabled(trace::Category::Tx));
    EXPECT_TRUE(trace::enabled(trace::Category::Vm));
    EXPECT_FALSE(trace::enabled(trace::Category::Sched));
    trace::disableAll();
    trace::enableFromSpec("  all  ");
    EXPECT_TRUE(trace::enabled(trace::Category::Journal));
    trace::disableAll();
    trace::enableFromSpec(""); // empty tokens are ignored, not errors
    EXPECT_FALSE(trace::enabled(trace::Category::Tx));
}

TEST(Trace, SpecEnablesMultipleCategories)
{
    TraceGuard guard;
    trace::enableFromSpec("tx,journal");
    EXPECT_TRUE(trace::enabled(trace::Category::Tx));
    EXPECT_TRUE(trace::enabled(trace::Category::Journal));
    EXPECT_FALSE(trace::enabled(trace::Category::Vm));
    trace::disableAll();
    trace::enableFromSpec("all");
    EXPECT_TRUE(trace::enabled(trace::Category::Sched));
}

TEST(Trace, DisabledCategoriesEmitNothing)
{
    TraceGuard guard;
    std::ostringstream os;
    trace::setSink(&os);
    trace::event(trace::Category::Tx, 5, "should not appear");
    EXPECT_TRUE(os.str().empty());
    trace::enable(trace::Category::Tx);
    trace::event(trace::Category::Tx, 7, "x=", 42);
    EXPECT_EQ(os.str(), "7: tx: x=42\n");
}

TEST(Trace, SimulationEmitsTxEvents)
{
    TraceGuard guard;
    std::ostringstream os;
    trace::setSink(&os);
    trace::enable(trace::Category::Tx);

    tir::Module m;
    m.globals.push_back({"g", 8, 0});
    tir::FunctionBuilder f(m, "worker", 1);
    f.txBegin();
    f.store(f.globalAddr("g"), f.constI(1));
    f.txEnd();
    f.retVoid();
    m.threadFunc = f.finish();
    core::SystemOptions opts;
    core::simulate(opts, m, 2);

    const std::string log = os.str();
    EXPECT_NE(log.find("begins hardware TX"), std::string::npos);
    EXPECT_NE(log.find("commits"), std::string::npos);
}

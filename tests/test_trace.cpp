/**
 * @file
 * Tests for the trace sinks (text, JSONL, Chrome) as observers of the
 * lifecycle event stream, and their category filtering.
 */

#include <gtest/gtest.h>

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cm/bfgts.h"
#include "runner/experiment.h"
#include "runner/simulation.h"
#include "sim/audit.h"
#include "sim/chrome_trace.h"
#include "sim/trace.h"

namespace {

using Kind = sim::TxEventKind;

runner::SimConfig
tracedConfig(sim::TxObserver *sink)
{
    runner::RunOptions options;
    options.txPerThread = 5;
    runner::SimConfig config =
        runner::makeConfig("Intruder", cm::CmKind::BfgtsHw, options);
    config.observers = {sink};
    return config;
}

TEST(Trace, EmitsLifecycleEvents)
{
    std::ostringstream os;
    sim::TextTraceSink sink(os);
    runner::Simulation simulation(tracedConfig(&sink));
    const runner::SimResults r = simulation.run();
    const std::string out = os.str();
    EXPECT_NE(out.find(" start"), std::string::npos);
    EXPECT_NE(out.find(" commit lines="), std::string::npos);
    // High-contention run: aborts and suspensions appear too.
    EXPECT_NE(out.find(" abort enemy="), std::string::npos);
    EXPECT_NE(out.find("suspend"), std::string::npos);
    EXPECT_NE(out.find("cat=predictor predict"), std::string::npos);
    EXPECT_NE(out.find("cat=cm conflict"), std::string::npos);
    EXPECT_NE(out.find("cat=mem rollback"), std::string::npos);
    // One commit line per commit.
    std::size_t commits = 0, pos = 0;
    while ((pos = out.find(" commit ", pos)) != std::string::npos) {
        ++commits;
        ++pos;
    }
    EXPECT_EQ(commits, r.commits);
}

TEST(Trace, LinesCarryTickCpuThreadAndSite)
{
    std::ostringstream os;
    sim::TextTraceSink sink(os);
    runner::Simulation simulation(tracedConfig(&sink));
    simulation.run();
    std::istringstream in(os.str());
    std::string line;
    int checked = 0;
    while (std::getline(in, line) && checked < 50) {
        EXPECT_EQ(line.rfind("tick=", 0), 0u) << line;
        EXPECT_NE(line.find(" cpu="), std::string::npos) << line;
        EXPECT_NE(line.find(" thread="), std::string::npos) << line;
        EXPECT_NE(line.find(" sTx="), std::string::npos) << line;
        EXPECT_NE(line.find(" dTx="), std::string::npos) << line;
        EXPECT_NE(line.find(" cat="), std::string::npos) << line;
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST(Trace, CategoryFilterDropsOtherCategories)
{
    std::ostringstream os;
    sim::TextTraceSink sink(os);
    sink.enableOnly({sim::TraceCategory::Tx});
    runner::Simulation simulation(tracedConfig(&sink));
    simulation.run();
    const std::string out = os.str();
    EXPECT_NE(out.find("cat=tx"), std::string::npos);
    EXPECT_EQ(out.find("cat=sched"), std::string::npos);
    EXPECT_EQ(out.find("cat=cm"), std::string::npos);
    EXPECT_EQ(out.find("cat=predictor"), std::string::npos);
    EXPECT_EQ(out.find("cat=mem"), std::string::npos);
}

TEST(Trace, JsonlRecordsAreOnePerLineWithSchemaKeys)
{
    std::ostringstream os;
    sim::JsonlTraceSink sink(os);
    runner::Simulation simulation(tracedConfig(&sink));
    simulation.run();
    std::istringstream in(os.str());
    std::string line;
    int checked = 0;
    while (std::getline(in, line) && checked < 50) {
        EXPECT_EQ(line.front(), '{') << line;
        EXPECT_EQ(line.back(), '}') << line;
        EXPECT_NE(line.find("\"tick\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"cpu\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"thread\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"cat\":"), std::string::npos) << line;
        EXPECT_NE(line.find("\"event\":"), std::string::npos) << line;
        ++checked;
    }
    EXPECT_GT(checked, 0);
}

TEST(Trace, CategoryNamesRoundTrip)
{
    for (unsigned i = 0; i < sim::kNumTraceCategories; ++i) {
        const auto category = static_cast<sim::TraceCategory>(i);
        sim::TraceCategory parsed;
        ASSERT_TRUE(sim::traceCategoryFromName(
            sim::traceCategoryName(category), &parsed));
        EXPECT_EQ(parsed, category);
    }
    sim::TraceCategory parsed;
    EXPECT_FALSE(sim::traceCategoryFromName("bogus", &parsed));
    EXPECT_FALSE(sim::traceCategoryFromName("", &parsed));
    EXPECT_FALSE(sim::traceCategoryFromName("TX", &parsed));
    // A failed parse must leave the output untouched.
    parsed = sim::TraceCategory::Mem;
    EXPECT_FALSE(sim::traceCategoryFromName("nope", &parsed));
    EXPECT_EQ(parsed, sim::TraceCategory::Mem);
}

TEST(Trace, EmptyMaskDropsEverything)
{
    std::ostringstream os;
    sim::TextTraceSink sink(os);
    sink.enableOnly({});
    for (unsigned i = 0; i < sim::kNumTraceCategories; ++i)
        EXPECT_FALSE(
            sink.wants(static_cast<sim::TraceCategory>(i)));
    EXPECT_EQ(sink.kinds(), 0u);
    runner::Simulation simulation(tracedConfig(&sink));
    simulation.run();
    EXPECT_TRUE(os.str().empty());
}

TEST(Trace, ObserverListFeedsEverySinkThroughItsFilter)
{
    std::ostringstream text_os, jsonl_os;
    sim::TextTraceSink text(text_os);
    text.enableOnly({sim::TraceCategory::Tx});
    sim::JsonlTraceSink jsonl(jsonl_os);
    jsonl.enableOnly({sim::TraceCategory::Predictor});
    // A sink declares exactly the kinds with a record it renders.
    EXPECT_EQ(text.kinds(), sim::txEventBit(Kind::Start)
                                | sim::txEventBit(Kind::Abort)
                                | sim::txEventBit(Kind::Commit));
    EXPECT_EQ(jsonl.kinds(), sim::txEventBit(Kind::Stall)
                                 | sim::txEventBit(Kind::Yield));

    runner::SimConfig config = tracedConfig(&text);
    config.observers.push_back(&jsonl);
    runner::Simulation simulation(config);
    simulation.run();
    // Each child applied its own filter to the shared stream.
    EXPECT_NE(text_os.str().find("cat=tx"), std::string::npos);
    EXPECT_EQ(text_os.str().find("cat=predictor"),
              std::string::npos);
    EXPECT_NE(jsonl_os.str().find("\"cat\":\"predictor\""),
              std::string::npos);
    EXPECT_EQ(jsonl_os.str().find("\"cat\":\"tx\""),
              std::string::npos);
}

TEST(Trace, ChromeSinkEmitsBalancedTimeline)
{
    std::ostringstream os;
    {
        sim::ChromeTraceSink sink(os);
        runner::Simulation simulation(tracedConfig(&sink));
        simulation.run();
        sink.close();
    }
    const std::string out = os.str();
    // Envelope and track metadata.
    EXPECT_EQ(out.rfind("{\"traceEvents\":[", 0), 0u);
    EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(out.find("bfgts-sim"), std::string::npos);
    EXPECT_NE(out.find("CPU 0"), std::string::npos);
    // Slices come in matched begin/end pairs.
    std::size_t begins = 0, ends = 0, pos = 0;
    while ((pos = out.find("\"ph\":\"B\"", pos)) !=
           std::string::npos) {
        ++begins;
        ++pos;
    }
    pos = 0;
    while ((pos = out.find("\"ph\":\"E\"", pos)) !=
           std::string::npos) {
        ++ends;
        ++pos;
    }
    EXPECT_GT(begins, 0u);
    EXPECT_EQ(begins, ends);
    // Run slices carry the site name; the file closes cleanly.
    EXPECT_NE(out.find("\"run s0\""), std::string::npos);
    EXPECT_EQ(out.substr(out.size() - 4), "\n]}\n");
}

/** One typed event per kind, and the records a sink renders for it,
 *  in the parent implementation's exact text and JSONL form. */
struct KindCase {
    sim::TxEvent event;
    std::vector<std::string> text;
    std::vector<std::string> jsonl;
};

sim::TxEvent
eventOf(Kind kind)
{
    sim::TxEvent event;
    event.kind = kind;
    event.tick = 7;
    event.cpu = 1;
    event.thread = 2;
    event.sTx = 3;
    event.dTx = 13;
    return event;
}

std::vector<KindCase>
kindCases()
{
    const std::string head = "tick=7 cpu=1 thread=2 sTx=3 dTx=13 cat=";
    const std::string jhead = "{\"tick\":7,\"cpu\":1,\"thread\":2,"
                              "\"sTx\":3,\"dTx\":13,\"cat\":";
    std::vector<KindCase> cases;
    const auto add = [&](sim::TxEvent event,
                         std::vector<std::string> text,
                         std::vector<std::string> jsonl) {
        cases.push_back({event, std::move(text), std::move(jsonl)});
    };

    add(eventOf(Kind::Start), {head + "tx start"},
        {jhead + "\"tx\",\"event\":\"start\"}"});
    sim::TxEvent stall = eventOf(Kind::Stall);
    stall.waitOn = 9;
    add(stall,
        {head + "predictor predict on=9",
         head + "sched suspend-stall on=9"},
        {jhead + "\"predictor\",\"event\":\"predict\","
                 "\"detail\":{\"on\":\"9\"}}",
         jhead + "\"sched\",\"event\":\"suspend-stall\","
                 "\"detail\":{\"on\":\"9\"}}"});
    sim::TxEvent yield = eventOf(Kind::Yield);
    yield.waitOn = 9;
    add(yield,
        {head + "predictor predict on=9",
         head + "sched suspend-yield on=9"},
        {jhead + "\"predictor\",\"event\":\"predict\","
                 "\"detail\":{\"on\":\"9\"}}",
         jhead + "\"sched\",\"event\":\"suspend-yield\","
                 "\"detail\":{\"on\":\"9\"}}"});
    add(eventOf(Kind::Block), {head + "sched block"},
        {jhead + "\"sched\",\"event\":\"block\"}"});
    sim::TxEvent stall_end = eventOf(Kind::StallEnd);
    stall_end.waitOn = 9;
    stall_end.cycles = 250;
    add(stall_end, {head + "sched stall-end on=9 cycles=250"},
        {jhead + "\"sched\",\"event\":\"stall-end\","
                 "\"detail\":{\"on\":\"9\",\"cycles\":\"250\"}}"});
    sim::TxEvent timeout = eventOf(Kind::StallTimeout);
    timeout.waitOn = 9;
    add(timeout, {head + "sched stall-timeout on=9"},
        {jhead + "\"sched\",\"event\":\"stall-timeout\","
                 "\"detail\":{\"on\":\"9\"}}"});
    add(eventOf(Kind::Preempt), {head + "sched preempt"},
        {jhead + "\"sched\",\"event\":\"preempt\"}"});
    sim::TxEvent conflict = eventOf(Kind::Conflict);
    conflict.enemy = 21;
    conflict.line = 4096;
    conflict.write = true;
    add(conflict, {head + "cm conflict enemy=21 line=4096 write=1"},
        {jhead + "\"cm\",\"event\":\"conflict\",\"detail\":"
                 "{\"enemy\":\"21\",\"line\":\"4096\","
                 "\"write\":\"1\"}}"});
    add(eventOf(Kind::Access), {}, {});
    sim::TxEvent abort = eventOf(Kind::Abort);
    abort.enemy = 21;
    abort.enemySTx = 5;
    abort.cycles = 777;
    add(abort, {head + "tx abort enemy=21 enemySTx=5 wasted=777"},
        {jhead + "\"tx\",\"event\":\"abort\",\"detail\":"
                 "{\"enemy\":\"21\",\"enemySTx\":\"5\","
                 "\"wasted\":\"777\"}}"});
    sim::TxEvent rollback = eventOf(Kind::Rollback);
    rollback.cycles = 40;
    add(rollback, {head + "mem rollback cycles=40"},
        {jhead + "\"mem\",\"event\":\"rollback\","
                 "\"detail\":{\"cycles\":\"40\"}}"});
    sim::TxEvent commit = eventOf(Kind::Commit);
    commit.lines = 12;
    add(commit, {head + "tx commit lines=12"},
        {jhead + "\"tx\",\"event\":\"commit\","
                 "\"detail\":{\"lines\":\"12\"}}"});
    add(eventOf(Kind::ThreadFinish), {}, {});
    return cases;
}

std::string
joinLines(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &line : lines)
        out += line + "\n";
    return out;
}

TEST(Trace, EveryKindRendersItsExactRecords)
{
    const std::vector<KindCase> cases = kindCases();
    // Every runner-emitted kind has a row (Violation is the audit
    // engine's, covered below).
    ASSERT_EQ(cases.size(), sim::kNumTxEventKinds - 1);
    for (const KindCase &c : cases) {
        std::ostringstream text_os, jsonl_os;
        sim::TextTraceSink text(text_os);
        sim::JsonlTraceSink jsonl(jsonl_os);
        text.onTxEvent(c.event);
        jsonl.onTxEvent(c.event);
        const unsigned kind = static_cast<unsigned>(c.event.kind);
        EXPECT_EQ(text_os.str(), joinLines(c.text)) << "kind " << kind;
        EXPECT_EQ(jsonl_os.str(), joinLines(c.jsonl)) << "kind " << kind;
        // A sink declares a kind exactly when it renders a record.
        EXPECT_EQ((text.kinds() & sim::txEventBit(c.event.kind)) != 0,
                  !c.text.empty())
            << "kind " << kind;
    }
}

TEST(Trace, ChromePreemptClosesTheOpenStallSlice)
{
    std::ostringstream os;
    {
        sim::ChromeTraceSink sink(os);
        sim::TxEvent stall = eventOf(Kind::Stall);
        stall.waitOn = 9;
        sink.onTxEvent(stall);
        sim::TxEvent preempt = eventOf(Kind::Preempt);
        preempt.tick = 50;
        sink.onTxEvent(preempt);
    }
    const std::string out = os.str();
    const std::string begin = "{\"name\":\"stall s3\",\"ph\":\"B\",\"ts\":7,"
                              "\"pid\":0,\"tid\":1,";
    const std::string end = "{\"name\":\"stall s3\",\"ph\":\"E\",\"ts\":50,"
                            "\"pid\":0,\"tid\":1}";
    const std::string instant = "{\"name\":\"preempt\",\"ph\":\"i\","
                                "\"ts\":50,";
    const std::size_t b = out.find(begin);
    const std::size_t e = out.find(end);
    const std::size_t i = out.find(instant);
    ASSERT_NE(b, std::string::npos) << out;
    ASSERT_NE(e, std::string::npos) << out;
    ASSERT_NE(i, std::string::npos) << out;
    // predict instant, stall B, then at the preempt tick E before
    // the preempt instant.
    EXPECT_NE(out.find("{\"name\":\"predict\",\"ph\":\"i\",\"ts\":7,"),
              std::string::npos);
    EXPECT_LT(b, e);
    EXPECT_LT(e, i);
}

TEST(Trace, AuditViolationReachesEveryObserver)
{
    std::ostringstream text_os, jsonl_os, filtered_os;
    sim::TextTraceSink text(text_os);
    sim::JsonlTraceSink jsonl(jsonl_os);
    sim::TextTraceSink filtered(filtered_os);
    filtered.enableOnly({sim::TraceCategory::Tx});
    sim::AuditEngine engine;
    engine.setEnabled(true);
    engine.setMode(sim::AuditEngine::Mode::Collect);
    engine.setObservers({&text, &jsonl, &filtered});

    engine.check(false, "htm.isolation", "broken", 42, /*cpu=*/3,
                 /*thread=*/5, /*stx=*/2, /*dtx=*/9);
    EXPECT_EQ(text_os.str(), "tick=42 cpu=3 thread=5 sTx=2 dTx=9 "
                             "cat=audit violation check=htm.isolation "
                             "msg=broken\n");
    EXPECT_EQ(jsonl_os.str(),
              "{\"tick\":42,\"cpu\":3,\"thread\":5,\"sTx\":2,\"dTx\":9,"
              "\"cat\":\"audit\",\"event\":\"violation\",\"detail\":"
              "{\"check\":\"htm.isolation\",\"msg\":\"broken\"}}\n");
    EXPECT_TRUE(filtered_os.str().empty());
    EXPECT_EQ(engine.violationCount(), 1u);
}

TEST(TraceDeathTest, OwnedAuditEngineTracesItsViolation)
{
    // The Simulation's own (Panic-mode) engine hands its violation to
    // the configured observers before aborting the run.
    EXPECT_DEATH(
        {
            sim::TextTraceSink sink(std::cerr);
            sink.enableOnly({sim::TraceCategory::Audit});
            runner::SimConfig config = tracedConfig(&sink);
            config.audit = true;
            runner::Simulation simulation(config);
            dynamic_cast<cm::BfgtsManager &>(simulation.manager())
                .testCorruptConfidence(0, 1, 999.0);
            simulation.run();
        },
        "cat=audit violation check=cm.confidence msg=");
}

TEST(Trace, DisabledByDefaultAndCostFree)
{
    runner::RunOptions options;
    options.txPerThread = 5;
    const runner::SimResults plain =
        runner::runStamp("Intruder", cm::CmKind::BfgtsHw, options);
    std::ostringstream os;
    sim::TextTraceSink sink(os);
    runner::Simulation traced(tracedConfig(&sink));
    const runner::SimResults with_trace = traced.run();
    // Tracing must not perturb the simulation.
    EXPECT_EQ(plain.runtime, with_trace.runtime);
    EXPECT_EQ(plain.commits, with_trace.commits);
    EXPECT_EQ(plain.aborts, with_trace.aborts);
}

} // namespace

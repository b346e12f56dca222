// JournalReader: FlightJournal -> write_journal_ndjson -> read back must
// preserve every record, and the forward-compat / error policy must hold
// (unknown types skipped, malformed lines reported with line numbers,
// truncation detected).
#include "obs/journal_reader.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/trace_export.hpp"

namespace marcopolo::obs {
namespace {

/// A journal exercising every record type and field: two worker lanes
/// with distinct task/propagation/verdict shapes, virtual-time attacks
/// and quorum decisions, timestamps past double's 2^53 exact range.
FlightJournal rich_journal() {
  FlightRecorder recorder;
  // Lane 0: two tasks, a propagation, three verdicts covering the
  // provenance space (adversary/contested/route-age, victim, unopposed).
  FlightBuffer* w0 = recorder.open_buffer();
  TaskSpanRecord t0;
  t0.announcer = 11;
  t0.adversary = 22;
  t0.victim_rows = 5;
  t0.total_capture = true;
  t0.start_ns = (std::uint64_t{1} << 53) + 123;  // must survive exactly
  t0.duration_ns = 7'000;
  t0.propagate_ns = 4'000;
  t0.classify_ns = 2'000;
  t0.record_ns = 500;
  w0->record_task(t0);
  TaskSpanRecord t1 = t0;
  t1.announcer = 12;
  t1.total_capture = false;
  t1.start_ns += 10'000;
  w0->record_task(t1);
  PropagationRunRecord p0;
  p0.start_ns = t0.start_ns + 100;
  p0.duration_ns = 3'500;
  p0.delivered = 321;
  p0.loop_dropped = 4;
  p0.rov_dropped = 9;
  p0.decided = {10, 20, 30, 40, 50};
  w0->record_propagation(p0);
  VerdictRecord v0;
  v0.victim = 1;
  v0.adversary = 2;
  v0.perspective = 33;
  v0.outcome = 2;
  v0.decided_by = VerdictStep::RouteAge;
  v0.contested = true;
  w0->record_verdict(v0);
  VerdictRecord v1;
  v1.victim = 1;
  v1.adversary = 2;
  v1.perspective = 34;
  v1.outcome = 1;
  v1.decided_by = VerdictStep::LocalPref;
  v1.contested = true;
  w0->record_verdict(v1);
  VerdictRecord v2;
  v2.victim = 3;
  v2.adversary = 4;
  v2.perspective = 35;
  v2.outcome = 1;
  v2.decided_by = VerdictStep::Unopposed;
  v2.contested = false;
  w0->record_verdict(v2);

  // Lane 1: one task plus the virtual-time records.
  FlightBuffer* w1 = recorder.open_buffer();
  TaskSpanRecord t2;
  t2.announcer = 90;
  t2.adversary = 91;
  t2.start_ns = t0.start_ns + 50;
  t2.duration_ns = 1'000;
  w1->record_task(t2);
  AttackSpanRecord a0;
  a0.lane = 7;
  a0.victim = 1;
  a0.adversary = 2;
  a0.attempt = 3;
  a0.complete = true;
  a0.announce_us = 1'000;
  a0.dcv_us = 5'000;
  a0.conclude_us = 5'400;
  w1->record_attack(a0);
  AttackSpanRecord a1 = a0;
  a1.attempt = 4;
  a1.complete = false;
  a1.announce_us = 6'000;
  a1.dcv_us = 9'000;
  a1.conclude_us = 9'100;
  w1->record_attack(a1);
  w1->record_quorum(QuorumRecord{"letsencrypt", 7, 1, 2, true, 5'500});
  w1->record_quorum(QuorumRecord{"cloudflare", 7, 1, 2, false, 5'600});

  return recorder.drain();
}

std::string to_ndjson(const FlightJournal& journal) {
  std::ostringstream out;
  write_journal_ndjson(out, journal);
  return out.str();
}

void expect_task_eq(const TaskSpanRecord& got, const TaskSpanRecord& want) {
  EXPECT_EQ(got.announcer, want.announcer);
  EXPECT_EQ(got.adversary, want.adversary);
  EXPECT_EQ(got.victim_rows, want.victim_rows);
  EXPECT_EQ(got.total_capture, want.total_capture);
  EXPECT_EQ(got.start_ns, want.start_ns);
  EXPECT_EQ(got.duration_ns, want.duration_ns);
  EXPECT_EQ(got.propagate_ns, want.propagate_ns);
  EXPECT_EQ(got.classify_ns, want.classify_ns);
  EXPECT_EQ(got.record_ns, want.record_ns);
}

TEST(JournalReader, RoundTripPreservesEveryRecord) {
  const FlightJournal original = rich_journal();
  // Journals written while the hardware-counter path existed carry
  // "instructions"/"cycles" on task lines; the first task line gets them
  // here and must still read back as the task it was.
  std::string ndjson = to_ndjson(original);
  const std::size_t task = ndjson.find("{\"type\": \"task\"");
  ASSERT_NE(task, std::string::npos);
  ndjson.insert(ndjson.find("}\n", task),
                ", \"instructions\": 123456789, \"cycles\": 98765432");
  std::istringstream in(ndjson);
  const ReadJournal read = JournalReader::read(in);

  ASSERT_TRUE(read.ok()) << (read.errors.empty()
                                 ? ""
                                 : read.errors.front().message);
  EXPECT_TRUE(read.has_meta);
  EXPECT_EQ(read.schema, 1);
  EXPECT_EQ(read.skipped_records, 0u);
  EXPECT_EQ(read.meta_workers, original.workers.size());
  EXPECT_EQ(read.meta_tasks, original.task_count());
  EXPECT_EQ(read.meta_verdicts, original.verdict_count());
  EXPECT_EQ(read.meta_adversary_verdicts,
            original.adversary_verdict_count());

  const FlightJournal& got = read.journal;
  EXPECT_EQ(got.epoch_ns, original.epoch_ns);
  ASSERT_EQ(got.workers.size(), original.workers.size());
  for (std::size_t w = 0; w < got.workers.size(); ++w) {
    const auto& glane = got.workers[w];
    const auto& olane = original.workers[w];
    EXPECT_EQ(glane.worker, olane.worker);
    ASSERT_EQ(glane.tasks.size(), olane.tasks.size());
    for (std::size_t i = 0; i < glane.tasks.size(); ++i) {
      expect_task_eq(glane.tasks[i], olane.tasks[i]);
    }
    ASSERT_EQ(glane.propagations.size(), olane.propagations.size());
    for (std::size_t i = 0; i < glane.propagations.size(); ++i) {
      const auto& gp = glane.propagations[i];
      const auto& op = olane.propagations[i];
      EXPECT_EQ(gp.start_ns, op.start_ns);
      EXPECT_EQ(gp.duration_ns, op.duration_ns);
      EXPECT_EQ(gp.delivered, op.delivered);
      EXPECT_EQ(gp.loop_dropped, op.loop_dropped);
      EXPECT_EQ(gp.rov_dropped, op.rov_dropped);
      EXPECT_EQ(gp.decided, op.decided);
    }
    ASSERT_EQ(glane.verdicts.size(), olane.verdicts.size());
    for (std::size_t i = 0; i < glane.verdicts.size(); ++i) {
      const auto& gv = glane.verdicts[i];
      const auto& ov = olane.verdicts[i];
      EXPECT_EQ(gv.victim, ov.victim);
      EXPECT_EQ(gv.adversary, ov.adversary);
      EXPECT_EQ(gv.perspective, ov.perspective);
      EXPECT_EQ(gv.outcome, ov.outcome);
      EXPECT_EQ(gv.decided_by, ov.decided_by);
      EXPECT_EQ(gv.contested, ov.contested);
      EXPECT_EQ(gv.route_age_sensitive(), ov.route_age_sensitive());
    }
  }

  ASSERT_EQ(got.attacks.size(), original.attacks.size());
  for (std::size_t i = 0; i < got.attacks.size(); ++i) {
    const auto& ga = got.attacks[i];
    const auto& oa = original.attacks[i];
    EXPECT_EQ(ga.lane, oa.lane);
    EXPECT_EQ(ga.victim, oa.victim);
    EXPECT_EQ(ga.adversary, oa.adversary);
    EXPECT_EQ(ga.attempt, oa.attempt);
    EXPECT_EQ(ga.complete, oa.complete);
    EXPECT_EQ(ga.announce_us, oa.announce_us);
    EXPECT_EQ(ga.dcv_us, oa.dcv_us);
    EXPECT_EQ(ga.conclude_us, oa.conclude_us);
  }

  ASSERT_EQ(read.quorums.size(), original.quorums.size());
  for (std::size_t i = 0; i < read.quorums.size(); ++i) {
    const auto& gq = read.quorums[i];
    const auto& oq = original.quorums[i];
    EXPECT_EQ(gq.system, oq.system);
    EXPECT_EQ(gq.lane, oq.lane);
    EXPECT_EQ(gq.victim, oq.victim);
    EXPECT_EQ(gq.adversary, oq.adversary);
    EXPECT_EQ(gq.corroborated, oq.corroborated);
    EXPECT_EQ(gq.virtual_us, oq.virtual_us);
  }

  // Derived counts agree, so run-compare summaries see the same data
  // whether they come from a live drain or a reread journal.
  EXPECT_EQ(got.task_count(), original.task_count());
  EXPECT_EQ(got.verdict_count(), original.verdict_count());
  EXPECT_EQ(got.adversary_verdict_count(),
            original.adversary_verdict_count());
}

TEST(JournalReader, TruncatedLineIsAnErrorWithItsLineNumber) {
  std::string text = to_ndjson(rich_journal());
  // Chop mid-way through the final line (no trailing newline either).
  text.resize(text.size() - 25);
  std::istringstream in(text);
  const ReadJournal read = JournalReader::read(in);
  ASSERT_FALSE(read.ok());
  ASSERT_EQ(read.errors.size(), 1u);
  EXPECT_EQ(read.errors[0].line, read.lines);
  EXPECT_NE(read.errors[0].message.find("JSON error"), std::string::npos);
}

TEST(JournalReader, UnknownRecordTypesAreSkippedNotErrors) {
  std::string text = to_ndjson(rich_journal());
  text += "{\"type\": \"future_record\", \"field\": 1}\n";
  text += "{\"type\": \"another_one\"}\n";
  std::istringstream in(text);
  const ReadJournal read = JournalReader::read(in);
  EXPECT_TRUE(read.ok());
  EXPECT_EQ(read.skipped_records, 2u);
  EXPECT_EQ(read.journal.task_count(), rich_journal().task_count());
}

TEST(JournalReader, UnknownFieldsInKnownRecordsAreIgnored) {
  std::istringstream in(
      "{\"type\": \"meta\", \"journal_schema\": 1, \"epoch_ns\": 5,"
      " \"future_field\": [1, 2]}\n"
      "{\"type\": \"task\", \"worker\": 0, \"announcer\": 1,"
      " \"adversary\": 2, \"start_ns\": 5, \"duration_ns\": 10,"
      " \"shiny_new_field\": {\"x\": 1}}\n");
  const ReadJournal read = JournalReader::read(in);
  ASSERT_TRUE(read.ok()) << read.errors.front().message;
  ASSERT_EQ(read.journal.task_count(), 1u);
  EXPECT_EQ(read.journal.workers[0].tasks[0].announcer, 1u);
}

TEST(JournalReader, FutureSchemaIsRejected) {
  std::istringstream in(
      "{\"type\": \"meta\", \"journal_schema\": 2, \"epoch_ns\": 0}\n");
  const ReadJournal read = JournalReader::read(in);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.errors[0].line, 1u);
  EXPECT_NE(read.errors[0].message.find("journal_schema"),
            std::string::npos);
}

TEST(JournalReader, MissingMetaIsAnError) {
  std::istringstream in(
      "{\"type\": \"task\", \"worker\": 0, \"start_ns\": 1,"
      " \"duration_ns\": 2}\n");
  const ReadJournal read = JournalReader::read(in);
  EXPECT_FALSE(read.ok());
  EXPECT_EQ(read.errors[0].line, 1u);
}

TEST(JournalReader, MalformedLinesCarryTheirLineNumbers) {
  std::string text =
      "{\"type\": \"meta\", \"journal_schema\": 1, \"epoch_ns\": 0}\n";
  text += "not json at all\n";                       // line 2
  text += "[1, 2, 3]\n";                             // line 3: not an object
  text += "{\"no_type_field\": true}\n";             // line 4: no "type"
  std::istringstream in(text);
  const ReadJournal read = JournalReader::read(in);
  ASSERT_EQ(read.errors.size(), 3u);
  EXPECT_EQ(read.errors[0].line, 2u);
  EXPECT_EQ(read.errors[1].line, 3u);
  EXPECT_EQ(read.errors[2].line, 4u);
}

TEST(JournalReader, EmptyStreamIsOkAndEmpty) {
  std::istringstream in("");
  const ReadJournal read = JournalReader::read(in);
  EXPECT_TRUE(read.ok());
  EXPECT_FALSE(read.has_meta);
  EXPECT_EQ(read.lines, 0u);
  EXPECT_EQ(read.journal.task_count(), 0u);
}

TEST(JournalReader, UnopenableFileReportsLineZero) {
  const ReadJournal read =
      JournalReader::read_file("/nonexistent-dir/journal.ndjson");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.errors[0].line, 0u);
}

TEST(JournalReader, AttackTagRoundTripsAndDefaultsToZero) {
  FlightRecorder recorder;
  FlightBuffer* lane = recorder.open_buffer();
  TaskSpanRecord tagged;
  tagged.announcer = 1;
  tagged.adversary = 2;
  tagged.start_ns = 10;
  tagged.duration_ns = 5;
  tagged.attack = 3;  // route-leak plane
  lane->record_task(tagged);
  TaskSpanRecord untagged = tagged;
  untagged.attack = 0;
  lane->record_task(untagged);
  VerdictRecord verdict;
  verdict.victim = 1;
  verdict.adversary = 2;
  verdict.perspective = 9;
  verdict.outcome = 2;
  verdict.attack = 2;
  lane->record_verdict(verdict);
  const std::string text = to_ndjson(recorder.drain());

  // The tag is written only when nonzero, so single-attack journals keep
  // their pre-multi-attack bytes: exactly the two tagged records carry it.
  std::size_t occurrences = 0;
  for (std::size_t at = text.find("\"attack\":"); at != std::string::npos;
       at = text.find("\"attack\":", at + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 2u);

  std::istringstream in(text);
  const ReadJournal read = JournalReader::read(in);
  ASSERT_TRUE(read.ok());
  ASSERT_EQ(read.journal.workers[0].tasks.size(), 2u);
  EXPECT_EQ(read.journal.workers[0].tasks[0].attack, 3);
  EXPECT_EQ(read.journal.workers[0].tasks[1].attack, 0)
      << "an absent tag must read back as the pre-multi-attack default";
  ASSERT_EQ(read.journal.workers[0].verdicts.size(), 1u);
  EXPECT_EQ(read.journal.workers[0].verdicts[0].attack, 2);
}

TEST(JournalReader, TaskAndVerdictWithoutAttackFieldDefaultToZero) {
  // A journal written before the attack tag existed.
  std::istringstream in(
      "{\"type\": \"meta\", \"journal_schema\": 1, \"epoch_ns\": 0}\n"
      "{\"type\": \"task\", \"worker\": 0, \"announcer\": 1,"
      " \"adversary\": 2, \"start_ns\": 5, \"duration_ns\": 10}\n"
      "{\"type\": \"verdict\", \"worker\": 0, \"victim\": 1,"
      " \"adversary\": 2, \"perspective\": 3, \"outcome\": \"adversary\","
      " \"decided_by\": \"local_pref\", \"contested\": true}\n");
  const ReadJournal read = JournalReader::read(in);
  ASSERT_TRUE(read.ok()) << (read.errors.empty()
                                 ? ""
                                 : read.errors.front().message);
  ASSERT_EQ(read.journal.task_count(), 1u);
  EXPECT_EQ(read.journal.workers[0].tasks[0].attack, 0);
  ASSERT_EQ(read.journal.workers[0].verdicts.size(), 1u);
  EXPECT_EQ(read.journal.workers[0].verdicts[0].attack, 0);
}

TEST(VerdictStep, FromStringInvertsToCstring) {
  for (const VerdictStep step :
       {VerdictStep::LocalPref, VerdictStep::PathLength,
        VerdictStep::RouteAge, VerdictStep::NeighborAsn,
        VerdictStep::IngressPop, VerdictStep::MoreSpecific,
        VerdictStep::Unopposed}) {
    VerdictStep decoded = VerdictStep::LocalPref;
    ASSERT_TRUE(verdict_step_from_string(to_cstring(step), decoded));
    EXPECT_EQ(decoded, step);
  }
  VerdictStep untouched = VerdictStep::IngressPop;
  EXPECT_FALSE(verdict_step_from_string("not_a_step", untouched));
  EXPECT_EQ(untouched, VerdictStep::IngressPop);
}

}  // namespace
}  // namespace marcopolo::obs

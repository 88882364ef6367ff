#include "sweep/manifest.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "io/json.hpp"
#include "support/error.hpp"

namespace ksw::sweep {
namespace {

// Minimal valid manifest with one section; `extra` is spliced into the
// section object and `settings` into the top level, so each test mutates
// exactly the clause under scrutiny.
std::string doc(const std::string& section_body,
                const std::string& top_extra = "") {
  return std::string("{\"schema\":\"ksw.sweep/v1\",\"name\":\"t\","
                     "\"title\":\"T\"") +
         top_extra + ",\"sections\":[" + section_body + "]}";
}

std::string section(const std::string& extra = "") {
  return std::string("{\"id\":\"sec\",\"title\":\"S\","
                     "\"kind\":\"first_stage\","
                     "\"grid\":{\"axes\":{\"p\":[0.25,0.5]}}") +
         extra + "}";
}

Manifest parse(const std::string& text) {
  return parse_manifest(io::Json::parse(text));
}

TEST(Manifest, ParsesMinimalDocument) {
  const Manifest m = parse(doc(section()));
  EXPECT_EQ(m.name, "t");
  ASSERT_EQ(m.sections.size(), 1u);
  EXPECT_EQ(m.sections[0].id, "sec");
  EXPECT_EQ(m.sections[0].kind, SectionKind::kFirstStage);
  ASSERT_EQ(m.sections[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(m.sections[0].points[0].p, 0.25);
  EXPECT_DOUBLE_EQ(m.sections[0].points[1].p, 0.5);
}

TEST(Manifest, CartesianAxesLaterAxesVaryFastest) {
  const Manifest m = parse(doc(
      R"({"id":"g","title":"G","kind":"first_stage",
          "grid":{"axes":{"k":[2,4],"p":[0.2,0.8]}}})"));
  const auto& pts = m.sections[0].points;
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].k, 2u);
  EXPECT_DOUBLE_EQ(pts[0].p, 0.2);
  EXPECT_DOUBLE_EQ(pts[1].p, 0.8);
  EXPECT_EQ(pts[2].k, 4u);
  EXPECT_DOUBLE_EQ(pts[2].p, 0.2);
}

TEST(Manifest, ExplicitPointsAppendAfterAxes) {
  const Manifest m = parse(doc(
      R"({"id":"g","title":"G","kind":"first_stage",
          "grid":{"axes":{"p":[0.2]},"points":[{"k":4,"p":0.5}]}})"));
  const auto& pts = m.sections[0].points;
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[1].k, 4u);
}

TEST(Manifest, SettingsMergeDefaultsThenSection) {
  const Manifest m = parse(doc(
      section(R"(,"replicates":6,"mean_rel_tol":0.2)"),
      R"(,"defaults":{"replicates":3,"measure_cycles":5000,"seed":9})"));
  EXPECT_EQ(m.defaults.replicates, 3u);
  EXPECT_EQ(m.sections[0].budget.replicates, 6u);
  EXPECT_EQ(m.sections[0].budget.measure_cycles, 5000);
  EXPECT_EQ(m.sections[0].budget.seed, 9u);
  EXPECT_DOUBLE_EQ(m.sections[0].tol.mean_rel, 0.2);
}

TEST(Manifest, WarmupDefaultsToTenthOfMeasure) {
  RunBudget b;
  b.measure_cycles = 5000;
  EXPECT_EQ(b.effective_warmup(), 500);
  b.warmup_cycles = 123;
  EXPECT_EQ(b.effective_warmup(), 123);
}

TEST(Manifest, PointLabelListsOnlyNonDefaults) {
  Point pt;
  pt.k = 4;
  pt.p = 0.25;
  EXPECT_EQ(pt.label(), "k=4 p=0.25");
  pt.bulk = 2;
  pt.service = "geo:0.5";
  EXPECT_EQ(pt.label(), "k=4 p=0.25 b=2 geo:0.5");
}

TEST(Manifest, RejectsWrongSchema) {
  EXPECT_THROW(parse("{\"schema\":\"ksw.sweep/v2\",\"name\":\"t\","
                     "\"title\":\"T\",\"sections\":[" + section() + "]}"),
               ksw::Error);
}

TEST(Manifest, RejectsUnknownKeysEverywhere) {
  EXPECT_THROW(parse(doc(section(), R"(,"tpyo":1)")),
               ksw::Error);
  EXPECT_THROW(parse(doc(section(R"(,"tpyo":1)"))), ksw::Error);
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"axes":{"p":[0.2]},"tpyo":1}})")),
               ksw::Error);
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"points":[{"p":0.2,"tpyo":1}]}})")),
               ksw::Error);
}

TEST(Manifest, RejectsBadGrids) {
  // Empty grid: no axes, no points.
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{}})")),
               ksw::Error);
  // Axis with an empty value list produces no points.
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"axes":{"p":[]}}})")),
               ksw::Error);
  // Out-of-range parameter values.
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"points":[{"p":1.5}]}})")),
               ksw::Error);
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"points":[{"q":1.0}]}})")),
               ksw::Error);
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"points":[{"k":0}]}})")),
               ksw::Error);
  // Malformed service specs are validated eagerly at parse time.
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"points":[{"service":"det:0"}]}})")),
               ksw::Error);
}

TEST(Manifest, RejectsDuplicatePoints) {
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"points":[{"p":0.5},{"p":0.5}]}})")),
               ksw::Error);
  // A point duplicated between the axes expansion and the explicit list.
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"axes":{"p":[0.5]},"points":[{"p":0.5}]}})")),
               ksw::Error);
}

TEST(Manifest, RejectsDuplicateSectionIds) {
  EXPECT_THROW(parse(doc(section() + "," + section())),
               ksw::Error);
}

TEST(Manifest, RejectsBadSectionIds) {
  EXPECT_THROW(parse(doc(
                   R"({"id":"Bad_Id","title":"G","kind":"first_stage",
                       "grid":{"axes":{"p":[0.2]}}})")),
               ksw::Error);
}

TEST(Manifest, RejectsBadCheckpoints) {
  const char* base =
      R"({"id":"g","title":"G","kind":"total_delay","stages":6,
          "checkpoints":%s,"grid":{"axes":{"p":[0.2]}}})";
  const auto with = [&](const char* cps) {
    std::string s = base;
    s.replace(s.find("%s"), 2, cps);
    return doc(s);
  };
  EXPECT_THROW(parse(with("[3,3]")), ksw::Error);
  EXPECT_THROW(parse(with("[6,3]")), ksw::Error);
  EXPECT_THROW(parse(with("[3,9]")), ksw::Error);
  EXPECT_THROW(parse(with("[0,3]")), ksw::Error);
  EXPECT_NO_THROW(parse(with("[3,6]")));
  // Only total_delay sections record totals.
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"stage_convergence",
                       "stages":6,"checkpoints":[3],
                       "grid":{"axes":{"p":[0.2]}}})")),
               ksw::Error);
}

TEST(Manifest, TotalDelayDefaultsCheckpointToFinalStage) {
  const Manifest m = parse(doc(
      R"({"id":"g","title":"G","kind":"total_delay","stages":5,
          "grid":{"axes":{"p":[0.2]}}})"));
  ASSERT_EQ(m.sections[0].checkpoints.size(), 1u);
  EXPECT_EQ(m.sections[0].checkpoints[0], 5u);
}

TEST(Manifest, NetworkSectionsRequireSquareSwitches) {
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"stage_convergence",
                       "grid":{"points":[{"k":4,"s":2}]}})")),
               ksw::Error);
}

TEST(Manifest, RejectsTinyReplicateCounts) {
  EXPECT_THROW(parse(doc(section(R"(,"replicates":1)"))),
               ksw::Error);
}

TEST(Manifest, KindNamesRoundTrip) {
  EXPECT_STREQ(to_string(SectionKind::kFirstStage), "first_stage");
  EXPECT_STREQ(to_string(SectionKind::kStageConvergence),
               "stage_convergence");
  EXPECT_STREQ(to_string(SectionKind::kTotalDelay), "total_delay");
  EXPECT_STREQ(to_string(SectionKind::kFiniteBuffer), "finite_buffer");
}

TEST(Manifest, FiniteBufferSectionParses) {
  const Manifest m = parse(doc(
      R"({"id":"fb","title":"F","kind":"finite_buffer","stages":3,
          "depths":[1,4,32],"flow":"credit","credit_latency":3,
          "grid":{"points":[{"p":0.7}]}})"));
  const Section& s = m.sections[0];
  EXPECT_EQ(s.kind, SectionKind::kFiniteBuffer);
  EXPECT_EQ(s.depths, (std::vector<unsigned>{1, 4, 32}));
  EXPECT_EQ(s.flow, sim::FlowControl::kCredit);
  EXPECT_EQ(s.credit_latency, 3u);
}

TEST(Manifest, FiniteBufferRequiresAscendingDepths) {
  const char* base =
      R"({"id":"fb","title":"F","kind":"finite_buffer","stages":3,
          "depths":%s,"grid":{"points":[{"p":0.7}]}})";
  const auto with = [&](const char* depths) {
    std::string s = base;
    s.replace(s.find("%s"), 2, depths);
    return doc(s);
  };
  EXPECT_THROW(parse(with("[]")), ksw::Error);
  EXPECT_THROW(parse(with("[4,2]")), ksw::Error);
  EXPECT_THROW(parse(with("[2,2]")), ksw::Error);
  EXPECT_THROW(parse(with("[0,2]")), ksw::Error);
  EXPECT_NO_THROW(parse(with("[2,4]")));
  // depths is mandatory for the kind...
  EXPECT_THROW(parse(doc(
                   R"({"id":"fb","title":"F","kind":"finite_buffer",
                       "stages":3,"grid":{"points":[{"p":0.7}]}})")),
               ksw::Error);
  // ...and meaningless anywhere else.
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"stage_convergence",
                       "stages":3,"depths":[2,4],
                       "grid":{"points":[{"p":0.7}]}})")),
               ksw::Error);
}

TEST(Manifest, FiniteBufferFlowVocabulary) {
  EXPECT_THROW(parse(doc(
                   R"({"id":"fb","title":"F","kind":"finite_buffer",
                       "stages":3,"depths":[2],"flow":"wormhole",
                       "grid":{"points":[{"p":0.7}]}})")),
               ksw::Error);
  // credit_latency only makes sense under credit flow control.
  EXPECT_THROW(parse(doc(
                   R"({"id":"fb","title":"F","kind":"finite_buffer",
                       "stages":3,"depths":[2],"flow":"vct",
                       "credit_latency":2,
                       "grid":{"points":[{"p":0.7}]}})")),
               ksw::Error);
  EXPECT_THROW(parse(doc(
                   R"({"id":"fb","title":"F","kind":"finite_buffer",
                       "stages":3,"depths":[2],"flow":"credit",
                       "credit_latency":0,
                       "grid":{"points":[{"p":0.7}]}})")),
               ksw::Error);
  // The engine's bound: a latency of 2^32 - 1 used to crash the run.
  for (const char* latency : {"1025", "4294967295"}) {
    std::string section =
        R"({"id":"fb","title":"F","kind":"finite_buffer","stages":3,
            "depths":[2],"flow":"credit","credit_latency":%s,
            "grid":{"points":[{"p":0.7}]}})";
    section.replace(section.find("%s"), 2, latency);
    try {
      (void)parse(doc(section));
      ADD_FAILURE() << latency << ": accepted";
    } catch (const ksw::Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kUsage);
      EXPECT_NE(std::string(e.what()).find("credit_latency"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Manifest, NetworkPointsPassTheEngineCheck) {
  // Rows of ConfigCheck.NamesTheFieldOfEveryOutOfRangeConfig a manifest
  // can spell fail at parse time, naming the point.
  for (const char* point : {R"({"k":1})", R"({"k":4})"}) {
    std::string section =
        R"({"id":"g","title":"G","kind":"stage_convergence","stages":13,
            "grid":{"points":[%s]}})";
    section.replace(section.find("%s"), 2, point);
    EXPECT_THROW(parse(doc(section)), ksw::Error) << point;
  }
  EXPECT_NO_THROW(parse(doc(
      R"({"id":"g","title":"G","kind":"stage_convergence","stages":12,
          "grid":{"points":[{"k":4}]}})")));
}

TEST(Manifest, RejectsIntegersBeyond32Bits) {
  // 2^32 + 2 used to narrow silently to 2.
  const std::string big = "4294967298";
  const auto point_section = [&](const std::string& key) {
    return R"({"id":"fb","title":"F","kind":"finite_buffer","stages":3,
               "depths":[2],"grid":{"points":[{"p":0.5,")" +
           key + "\":" + big + "}]}}";
  };
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"k", point_section("k")},
      {"s", point_section("s")},
      {"bulk", point_section("bulk")},
      {"hotspot_target", point_section("hotspot_target")},
      {"stages", R"({"id":"g","title":"G","kind":"stage_convergence",
                     "stages":)" + big + R"(,"grid":{"points":[{}]}})"},
      {"checkpoints", R"({"id":"g","title":"G","kind":"total_delay",
                          "stages":3,"checkpoints":[)" + big +
                          R"(],"grid":{"points":[{}]}})"},
      {"depths", R"({"id":"fb","title":"F","kind":"finite_buffer",
                     "stages":3,"depths":[)" + big +
                     R"(],"grid":{"points":[{}]}})"},
      {"credit_latency",
       R"({"id":"fb","title":"F","kind":"finite_buffer","stages":3,
           "depths":[2],"flow":"credit","credit_latency":)" + big +
           R"(,"grid":{"points":[{}]}})"},
      {"replicates", section(R"(,"replicates":)" + big)},
  };
  for (const auto& [key, body] : cases) {
    try {
      (void)parse(doc(body));
      ADD_FAILURE() << key << ": accepted";
    } catch (const ksw::Error& e) {
      EXPECT_EQ(e.kind(), ErrorKind::kUsage) << key;
      EXPECT_NE(std::string(e.what()).find(key + " must be <= 4294967295"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(Manifest, HotspotPointsOnlyInFiniteBufferSections) {
  EXPECT_NO_THROW(parse(doc(
      R"({"id":"fb","title":"F","kind":"finite_buffer","stages":3,
          "depths":[2],
          "grid":{"points":[{"p":0.5,"hotspot":0.01,"hotspot_target":0}]}})")));
  // Active hot spots have no analytic column in the other section kinds.
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"stage_convergence",
                       "stages":3,
                       "grid":{"points":[{"p":0.5,"hotspot":0.01}]}})")),
               ksw::Error);
  EXPECT_THROW(parse(doc(
                   R"({"id":"g","title":"G","kind":"first_stage",
                       "grid":{"points":[{"p":0.5,"hotspot_target":1}]}})")),
               ksw::Error);
  // The target must name a real port (< k^stages) even when inactive.
  EXPECT_THROW(parse(doc(
                   R"({"id":"fb","title":"F","kind":"finite_buffer",
                       "stages":3,"depths":[2],
                       "grid":{"points":[{"p":0.5,"hotspot":0.01,
                                          "hotspot_target":8}]}})")),
               ksw::Error);
  EXPECT_THROW(parse(doc(
                   R"({"id":"fb","title":"F","kind":"finite_buffer",
                       "stages":3,"depths":[2],
                       "grid":{"points":[{"p":0.5,"hotspot":1.0}]}})")),
               ksw::Error);
}

TEST(Manifest, HotspotPointLabel) {
  const Manifest m = parse(doc(
      R"({"id":"fb","title":"F","kind":"finite_buffer","stages":3,
          "depths":[2],
          "grid":{"points":[{"p":0.5,"hotspot":0.01,"hotspot_target":3}]}})"));
  EXPECT_NE(m.sections[0].points[0].label().find("hot=0.01@3"),
            std::string::npos)
      << m.sections[0].points[0].label();
}

TEST(Manifest, LoadManifestReportsMissingFile) {
  EXPECT_THROW(load_manifest("/nonexistent/path.json"),
               ksw::Error);
}

}  // namespace
}  // namespace ksw::sweep

#include "io/json_report.h"

#include <cstdio>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "datagen/worked_example.h"

namespace tpiin {
namespace {

// The obvious one-byte-at-a-time escaper the bulk one must match.
std::string ReferenceEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

TEST(JsonEscapeTest, EscapesSpecials) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape(std::string("ctl\x01") + "x"), "ctl\\u0001x");
}

TEST(JsonEscapeTest, EmptyInputIsEmpty) {
  EXPECT_EQ(JsonEscape(""), "");
  std::string out = "kept";
  AppendJsonEscaped("", &out);
  EXPECT_EQ(out, "kept");
}

TEST(JsonEscapeTest, EveryControlByteIsEscaped) {
  for (int c = 0; c < 0x20; ++c) {
    const std::string byte(1, static_cast<char>(c));
    std::string expected;
    switch (c) {
      case '\n': expected = "\\n"; break;
      case '\r': expected = "\\r"; break;
      case '\t': expected = "\\t"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof(buf), "\\u%04x", c);
        expected = buf;
      }
    }
    EXPECT_EQ(JsonEscape(byte), expected) << "byte 0x" << std::hex << c;
    // Mid-word too, so the eight-byte scan must find it.
    EXPECT_EQ(JsonEscape("abcdefgh" + byte + "ijklmnop"),
              "abcdefgh" + expected + "ijklmnop")
        << "byte 0x" << std::hex << c;
  }
}

TEST(JsonEscapeTest, DelAndUtf8HighBytesPassThrough) {
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");
  const std::string utf8 =
      "\xe7\xa8\x8e\xe5\x8a\xa1 caf\xc3\xa9 \xf0\x9f\x92\xb0";
  EXPECT_EQ(JsonEscape(utf8), utf8);
  std::string every_high;
  for (int c = 0x80; c < 0x100; ++c) every_high += static_cast<char>(c);
  EXPECT_EQ(JsonEscape(every_high), every_high);
}

TEST(JsonEscapeTest, AppendKeepsThePrefix) {
  std::string out = "{\"k\":\"";
  AppendJsonEscaped("a\"b", &out);
  EXPECT_EQ(out, "{\"k\":\"a\\\"b");
}

TEST(JsonEscapeTest, RandomInputsMatchTheReferenceEscaper) {
  // Byte mixes from all-plain to all-special, every length 0..40 and
  // some long ones, so runs start and end at every offset of a word.
  std::mt19937 rng(20170402);
  const std::string specials =
      std::string("\"\\\n\r\t\x01\x1f\x7f\x80\xff", 10) + std::string(1, '\0');
  for (int trial = 0; trial < 3000; ++trial) {
    const size_t length = trial < 2000 ? trial % 41 : rng() % 5000;
    const unsigned special_percent = rng() % 101;
    std::string text;
    for (size_t i = 0; i < length; ++i) {
      if (rng() % 100 < special_percent) {
        text += specials[rng() % specials.size()];
      } else {
        text += static_cast<char>(rng() % 256);
      }
    }
    ASSERT_EQ(JsonEscape(text), ReferenceEscape(text))
        << "trial " << trial << ", length " << length;
  }
}

class JsonReportTest : public ::testing::Test {
 protected:
  JsonReportTest() : net_(BuildWorkedExampleTpiin()) {
    auto result = DetectSuspiciousGroups(net_);
    EXPECT_TRUE(result.ok());
    detection_ = std::move(result).value();
    scoring_ = ScoreDetection(net_, detection_);
  }

  Tpiin net_;
  DetectionResult detection_;
  ScoringResult scoring_;
};

TEST_F(JsonReportTest, SummaryFieldsPresent) {
  std::string json = DetectionToJson(net_, detection_, &scoring_);
  EXPECT_NE(json.find("\"simple\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"complex\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"suspicious_trades\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"total_trades\": 5"), std::string::npos);
}

TEST_F(JsonReportTest, TradesAndGroupsListed) {
  std::string json = DetectionToJson(net_, detection_, &scoring_);
  EXPECT_NE(json.find("\"seller\": \"C3\", \"buyer\": \"C5\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"simple\""), std::string::npos);
  EXPECT_NE(json.find("\"antecedent\": \"B1\""), std::string::npos);
  // Scores from the scoring pass are attached.
  EXPECT_NE(json.find("\"score\": 1.000000"), std::string::npos);
}

TEST_F(JsonReportTest, WithoutScoringOmitsScores) {
  std::string json = DetectionToJson(net_, detection_, nullptr);
  EXPECT_EQ(json.find("\"score\""), std::string::npos);
  EXPECT_NE(json.find("\"groups\": ["), std::string::npos);
}

TEST_F(JsonReportTest, SyndicateLabelsEscapedSafely) {
  std::string json = DetectionToJson(net_, detection_, &scoring_);
  // The direct-built worked example uses the paper's syndicate labels
  // L1/B2; the fused variant's brace labels contain no JSON specials
  // either, checked via a hand-built net below.
  EXPECT_NE(json.find("\"L1\""), std::string::npos);
  TpiinBuilder builder;
  NodeId p = builder.AddPersonNode("{L6+LB}");
  NodeId c = builder.AddCompanyNode("C1");
  builder.AddInfluenceArc(p, c);
  auto net = builder.Build();
  ASSERT_TRUE(net.ok());
  auto detection = DetectSuspiciousGroups(*net);
  ASSERT_TRUE(detection.ok());
  std::string other = DetectionToJson(*net, *detection, nullptr);
  EXPECT_NE(other.find("\"summary\""), std::string::npos);
}

TEST_F(JsonReportTest, BalancedBracesSmokeCheck) {
  std::string json = DetectionToJson(net_, detection_, &scoring_);
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
}

}  // namespace
}  // namespace tpiin

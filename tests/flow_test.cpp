// Tests for the flow model: match evaluation, subsumption, intersection
// (the slicer's core operation), and action parsing/formatting.
#include <gtest/gtest.h>

#include "yanc/flow/flowspec.hpp"

namespace yanc::flow {
namespace {

FieldValues http_packet() {
  FieldValues f;
  f.in_port = 1;
  f.dl_src = *MacAddress::parse("02:00:00:00:00:01");
  f.dl_dst = *MacAddress::parse("02:00:00:00:00:02");
  f.dl_type = 0x0800;
  f.nw_src = *Ipv4Address::parse("10.0.0.1");
  f.nw_dst = *Ipv4Address::parse("10.0.0.2");
  f.nw_proto = 6;
  f.tp_src = 49152;
  f.tp_dst = 80;
  return f;
}

TEST(Match, MatchAllMatchesEverything) {
  Match m;
  EXPECT_TRUE(m.is_match_all());
  EXPECT_TRUE(m.matches(http_packet()));
  EXPECT_TRUE(m.matches(FieldValues{}));
  EXPECT_EQ(m.wildcard_count(), 12);
  EXPECT_EQ(m.to_string(), "");
}

TEST(Match, ExactFieldsFilter) {
  Match m;
  m.dl_type = 0x0800;
  m.tp_dst = 80;
  EXPECT_TRUE(m.matches(http_packet()));
  auto pkt = http_packet();
  pkt.tp_dst = 443;
  EXPECT_FALSE(m.matches(pkt));
  pkt = http_packet();
  pkt.dl_type = 0x0806;
  EXPECT_FALSE(m.matches(pkt));
}

TEST(Match, CidrPrefixMatching) {
  Match m;
  m.nw_src = *Cidr::parse("10.0.0.0/8");
  EXPECT_TRUE(m.matches(http_packet()));
  auto pkt = http_packet();
  pkt.nw_src = *Ipv4Address::parse("192.168.0.1");
  EXPECT_FALSE(m.matches(pkt));
}

TEST(Match, ExactFromRoundTrip) {
  auto pkt = http_packet();
  Match m = Match::exact_from(pkt);
  EXPECT_EQ(m.wildcard_count(), 0);
  EXPECT_TRUE(m.matches(pkt));
  auto other = pkt;
  other.tp_src = 1;
  EXPECT_FALSE(m.matches(other));
}

TEST(Match, Subsumption) {
  Match all;
  Match narrow;
  narrow.dl_type = 0x0800;
  narrow.nw_dst = *Cidr::parse("10.1.0.0/16");
  EXPECT_TRUE(all.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(all));
  EXPECT_TRUE(narrow.subsumes(narrow));

  Match wider_prefix;
  wider_prefix.nw_dst = *Cidr::parse("10.0.0.0/8");
  EXPECT_TRUE(wider_prefix.subsumes(narrow));
  EXPECT_FALSE(narrow.subsumes(wider_prefix));
}

TEST(Match, IntersectDisjointFieldsIsEmpty) {
  Match a, b;
  a.tp_dst = 22;
  b.tp_dst = 80;
  EXPECT_FALSE(a.intersect(b).has_value());
}

TEST(Match, IntersectMergesFields) {
  Match slice;  // "ssh traffic"
  slice.dl_type = 0x0800;
  slice.nw_proto = 6;
  slice.tp_dst = 22;
  Match app;  // "traffic from 10.1/16"
  app.nw_src = *Cidr::parse("10.1.0.0/16");
  auto merged = slice.intersect(app);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->tp_dst, 22);
  EXPECT_EQ(merged->nw_src->to_string(), "10.1.0.0/16");
  EXPECT_EQ(merged->dl_type, 0x0800);
  // Intersection commutes.
  EXPECT_EQ(app.intersect(slice), merged);
}

TEST(Match, IntersectCidrPicksNarrower) {
  Match a, b;
  a.nw_dst = *Cidr::parse("10.0.0.0/8");
  b.nw_dst = *Cidr::parse("10.5.0.0/16");
  auto m = a.intersect(b);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->nw_dst->to_string(), "10.5.0.0/16");
  // Disjoint prefixes do not intersect.
  Match c;
  c.nw_dst = *Cidr::parse("192.168.0.0/16");
  EXPECT_FALSE(a.intersect(c).has_value());
}

TEST(Match, ToStringListsFields) {
  Match m;
  m.dl_type = 0x0800;
  m.tp_dst = 22;
  EXPECT_EQ(m.to_string(), "dl_type=0x0800,tp_dst=22");
}

TEST(Action, OutputHelpers) {
  EXPECT_EQ(Action::output(7).port(), 7);
  EXPECT_EQ(Action::to_controller().port(), port_no::controller);
  EXPECT_EQ(Action::flood().port(), port_no::flood);
  EXPECT_EQ(Action::output(7).to_string(), "out:7");
  EXPECT_EQ(Action::flood().value_text(), "flood");
}

TEST(Action, ParseOut) {
  EXPECT_EQ(parse_action("out", "3")->port(), 3);
  EXPECT_EQ(parse_action("out", "controller")->port(), port_no::controller);
  EXPECT_EQ(parse_action("out", " flood \n")->port(), port_no::flood);
  EXPECT_FALSE(parse_action("out", "70000").ok());
  EXPECT_FALSE(parse_action("out", "").ok());
}

TEST(Action, ParseSetters) {
  auto vlan = parse_action("set_vlan", "100");
  ASSERT_TRUE(vlan.ok());
  EXPECT_EQ(vlan->kind, ActionKind::set_vlan);
  EXPECT_FALSE(parse_action("set_vlan", "5000").ok());  // > 4095

  auto mac = parse_action("set_dl_dst", "02:00:00:00:00:09");
  ASSERT_TRUE(mac.ok());
  EXPECT_EQ(mac->mac().to_string(), "02:00:00:00:00:09");

  auto ip = parse_action("set_nw_src", "1.2.3.4");
  ASSERT_TRUE(ip.ok());
  EXPECT_EQ(ip->ip().to_string(), "1.2.3.4");

  auto tos = parse_action("set_nw_tos", "32");
  ASSERT_TRUE(tos.ok());
  EXPECT_EQ(tos->value_text(), "32");

  EXPECT_FALSE(parse_action("unknown_action", "1").ok());
}

TEST(Action, ParseEnqueue) {
  auto q = parse_action("enqueue", "2:1");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->value_text(), "2:1");
  EXPECT_FALSE(parse_action("enqueue", "2").ok());
  EXPECT_FALSE(parse_action("enqueue", "2:x").ok());
}

TEST(Action, FileNameRoundTrip) {
  for (auto kind : {ActionKind::output, ActionKind::set_vlan,
                    ActionKind::strip_vlan, ActionKind::set_dl_src,
                    ActionKind::set_nw_dst, ActionKind::set_tp_src,
                    ActionKind::enqueue}) {
    EXPECT_FALSE(action_file_name(kind).empty());
  }
}

TEST(FlowSpec, ToStringReadable) {
  FlowSpec spec;
  spec.match.tp_dst = 22;
  spec.actions = {Action::output(2)};
  spec.priority = 10;
  spec.idle_timeout = 5;
  EXPECT_EQ(spec.to_string(),
            "prio=10 match=[tp_dst=22] actions=[out:2] idle=5");
  FlowSpec drop;
  EXPECT_EQ(drop.to_string(), "prio=32768 match=[*] actions=[drop]");
}

TEST(FlowSpec, ActionsToString) {
  EXPECT_EQ(actions_to_string({}), "drop");
  EXPECT_EQ(actions_to_string({Action::output(1), Action::output(2)}),
            "out:1 out:2");
}

}  // namespace
}  // namespace yanc::flow

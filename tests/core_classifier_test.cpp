// Exhaustive tests of the darknet traffic taxonomy.
#include "core/classifier.hpp"

#include <gtest/gtest.h>

namespace iotscope::core {
namespace {

net::FlowTuple tcp_flow(std::uint8_t flags) {
  net::FlowTuple t;
  t.protocol = net::Protocol::Tcp;
  t.tcp_flags = flags;
  return t;
}

net::FlowTuple icmp_flow(net::IcmpType type) {
  net::FlowTuple t;
  t.protocol = net::Protocol::Icmp;
  t.src_port = static_cast<net::Port>(type);
  return t;
}

// gtest names each case by a byte dump of its parameter, padding included.
// The padding is an explicit zeroed member so that the names are the same
// on every run instead of showing whatever was left on the stack.
struct TcpCase {
  TcpCase(std::uint8_t f, FlowClass e) : flags(f), expected(e) {}
  std::uint8_t flags;
  std::uint8_t pad[3]{};
  FlowClass expected;
};
static_assert(sizeof(TcpCase) == 8, "TcpCase must have no hidden padding");

class TcpTaxonomyTest : public ::testing::TestWithParam<TcpCase> {};

TEST_P(TcpTaxonomyTest, ClassifiesFlagCombination) {
  const auto& param = GetParam();
  EXPECT_EQ(classify(tcp_flow(param.flags)), param.expected)
      << net::tcp_flags_to_string(param.flags);
}

INSTANTIATE_TEST_SUITE_P(
    FlagCombos, TcpTaxonomyTest,
    ::testing::Values(
        TcpCase{net::kSyn, FlowClass::TcpScan},
        TcpCase{net::kSyn | net::kPsh, FlowClass::TcpScan},
        TcpCase{net::kSyn | net::kUrg, FlowClass::TcpScan},
        TcpCase{net::kSyn | net::kAck, FlowClass::TcpBackscatter},
        TcpCase{net::kRst, FlowClass::TcpBackscatter},
        TcpCase{net::kRst | net::kAck, FlowClass::TcpBackscatter},
        TcpCase{net::kSyn | net::kRst, FlowClass::TcpBackscatter},
        TcpCase{net::kAck, FlowClass::TcpOther},
        TcpCase{net::kAck | net::kPsh, FlowClass::TcpOther},
        TcpCase{net::kFin | net::kAck, FlowClass::TcpOther},
        TcpCase{net::kSyn | net::kFin, FlowClass::TcpOther},  // anomalous
        TcpCase{0, FlowClass::TcpOther}));

TEST(Taxonomy, UdpAlwaysUdp) {
  net::FlowTuple t;
  t.protocol = net::Protocol::Udp;
  t.dst_port = 37547;
  EXPECT_EQ(classify(t), FlowClass::Udp);
}

// Zeroed explicit padding for stable case names, as for TcpCase.
struct IcmpCase {
  IcmpCase(net::IcmpType t, FlowClass e) : type(t), expected(e) {}
  net::IcmpType type;
  std::uint8_t pad[3]{};
  FlowClass expected;
};
static_assert(sizeof(IcmpCase) == 8, "IcmpCase must have no hidden padding");

class IcmpTaxonomyTest : public ::testing::TestWithParam<IcmpCase> {};

TEST_P(IcmpTaxonomyTest, ClassifiesIcmpType) {
  const auto& param = GetParam();
  EXPECT_EQ(classify(icmp_flow(param.type)), param.expected)
      << net::to_string(param.type);
}

INSTANTIATE_TEST_SUITE_P(
    Types, IcmpTaxonomyTest,
    ::testing::Values(
        IcmpCase{net::IcmpType::EchoRequest, FlowClass::IcmpScan},
        IcmpCase{net::IcmpType::EchoReply, FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::DestinationUnreachable,
                 FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::SourceQuench, FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::Redirect, FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::TimeExceeded, FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::ParameterProblem, FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::TimestampReply, FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::InformationReply, FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::AddressMaskReply, FlowClass::IcmpBackscatter},
        IcmpCase{net::IcmpType::TimestampRequest, FlowClass::IcmpOther},
        IcmpCase{net::IcmpType::InformationRequest, FlowClass::IcmpOther},
        IcmpCase{net::IcmpType::AddressMaskRequest, FlowClass::IcmpOther}));

TEST(Taxonomy, StrictOptionsNarrowBackscatter) {
  TaxonomyOptions strict;
  strict.full_icmp_reply_family = false;
  strict.rst_counts_as_backscatter = false;

  EXPECT_EQ(classify(tcp_flow(net::kRst), strict), FlowClass::TcpOther);
  EXPECT_EQ(classify(tcp_flow(net::kSyn | net::kAck), strict),
            FlowClass::TcpBackscatter);  // SYN-ACK always backscatter
  EXPECT_EQ(classify(icmp_flow(net::IcmpType::EchoReply), strict),
            FlowClass::IcmpBackscatter);
  EXPECT_EQ(classify(icmp_flow(net::IcmpType::TimeExceeded), strict),
            FlowClass::IcmpOther);  // outside the strict pair
}

TEST(Taxonomy, ClassPredicatesAndNames) {
  EXPECT_TRUE(is_scanning(FlowClass::TcpScan));
  EXPECT_TRUE(is_scanning(FlowClass::IcmpScan));
  EXPECT_FALSE(is_scanning(FlowClass::Udp));
  EXPECT_TRUE(is_backscatter(FlowClass::TcpBackscatter));
  EXPECT_TRUE(is_backscatter(FlowClass::IcmpBackscatter));
  EXPECT_FALSE(is_backscatter(FlowClass::TcpScan));
  EXPECT_STREQ(to_string(FlowClass::TcpScan), "TCP scanning");
  EXPECT_STREQ(to_string(FlowClass::Udp), "UDP");
}

}  // namespace
}  // namespace iotscope::core

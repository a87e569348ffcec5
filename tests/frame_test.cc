// serve/frame: primitive codec round trips, message round trips, and —
// the part that keeps a network daemon alive — rejection of malformed,
// truncated, oversized, and hostile input as a typed `false`, never a
// crash. These run in the CI ThreadSanitizer suite.

#include "serve/frame.h"

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "rel/universal.h"
#include "schema/parse.h"
#include "util/rng.h"

namespace gyo {
namespace serve {
namespace {

// Strips the 4-byte header and the type byte, checking both along the way —
// what the server's dispatch does to every encoder's output.
std::vector<uint8_t> Body(const std::vector<uint8_t>& frame, FrameType type) {
  EXPECT_GE(frame.size(), kFrameHeaderBytes + 1);
  const uint32_t len = static_cast<uint32_t>(frame[0]) |
                       static_cast<uint32_t>(frame[1]) << 8 |
                       static_cast<uint32_t>(frame[2]) << 16 |
                       static_cast<uint32_t>(frame[3]) << 24;
  EXPECT_EQ(len, frame.size() - kFrameHeaderBytes);
  EXPECT_EQ(frame[kFrameHeaderBytes], static_cast<uint8_t>(type));
  return std::vector<uint8_t>(frame.begin() + kFrameHeaderBytes + 1,
                              frame.end());
}

// Gives every query counter a distinct value, in table order: 100, 201,
// 302, ... (two-byte zigzag varints, so a dropped counter shifts every
// later byte). ExpectDistinctCounters checks the same sequence.
void SetDistinctCounters(exec::QueryStats* stats) {
  int64_t next = 100;
  exec::ForEachCounter(*stats, [&](const char*, int64_t& value) {
    value = next;
    next += 101;
  });
}

void ExpectDistinctCounters(const exec::QueryStats& stats) {
  int64_t want = 100;
  exec::ForEachCounter(stats, [&](const char* name, int64_t value) {
    EXPECT_EQ(value, want) << name;
    want += 101;
  });
}

TEST(FrameCodecTest, VarintAndZigzagRoundTripEdgeValues) {
  const uint64_t unsigned_cases[] = {
      0, 1, 127, 128, 300, (1ull << 32) - 1, (1ull << 63),
      std::numeric_limits<uint64_t>::max()};
  const int64_t signed_cases[] = {
      0, 1, -1, 63, -64, 64, -65,
      std::numeric_limits<int64_t>::max(),
      std::numeric_limits<int64_t>::min()};
  Writer w;
  for (uint64_t v : unsigned_cases) w.Varint(v);
  for (int64_t v : signed_cases) w.Zigzag(v);
  w.Str("hello");
  w.F64(-2.5);
  w.Begin(FrameType::kError);  // clears; reuse the writer for the payload
  for (uint64_t v : unsigned_cases) w.Varint(v);
  for (int64_t v : signed_cases) w.Zigzag(v);
  w.Str("hello");
  w.F64(-2.5);
  std::vector<uint8_t> frame = w.Finish();
  std::vector<uint8_t> body = Body(frame, FrameType::kError);

  Reader r(body.data(), body.size());
  for (uint64_t expected : unsigned_cases) {
    uint64_t v = 1;
    ASSERT_TRUE(r.Varint(&v));
    EXPECT_EQ(v, expected);
  }
  for (int64_t expected : signed_cases) {
    int64_t v = 1;
    ASSERT_TRUE(r.Zigzag(&v));
    EXPECT_EQ(v, expected);
  }
  std::string s;
  ASSERT_TRUE(r.Str(&s));
  EXPECT_EQ(s, "hello");
  double d = 0;
  ASSERT_TRUE(r.F64(&d));
  EXPECT_EQ(d, -2.5);
  EXPECT_TRUE(r.AtEnd());
}

TEST(FrameCodecTest, ReaderRejectsTruncationAndOverlongVarints) {
  // Truncated varint: a lone continuation byte.
  {
    const uint8_t bytes[] = {0x80};
    Reader r(bytes, sizeof(bytes));
    uint64_t v;
    EXPECT_FALSE(r.Varint(&v));
    EXPECT_FALSE(r.ok());
  }
  // 11-byte varint (too many continuations).
  {
    std::vector<uint8_t> bytes(11, 0x80);
    Reader r(bytes.data(), bytes.size());
    uint64_t v;
    EXPECT_FALSE(r.Varint(&v));
  }
  // 10th byte carrying more than the u64's top bit.
  {
    std::vector<uint8_t> bytes(9, 0x80);
    bytes.push_back(0x02);
    Reader r(bytes.data(), bytes.size());
    uint64_t v;
    EXPECT_FALSE(r.Varint(&v));
  }
  // String length past the end.
  {
    const uint8_t bytes[] = {0x05, 'a', 'b'};
    Reader r(bytes, sizeof(bytes));
    std::string s;
    EXPECT_FALSE(r.Str(&s));
  }
  // A poisoned reader stays poisoned.
  {
    const uint8_t bytes[] = {0x80, 0x01, 0x01};
    Reader r(bytes, 1);
    uint64_t v;
    EXPECT_FALSE(r.Varint(&v));
    uint8_t b;
    EXPECT_FALSE(r.U8(&b));
  }
}

TEST(FrameCodecTest, RelationDataRoundTripsBitIdentically) {
  Catalog catalog;
  DatabaseSchema schema = ParseSchema(catalog, "ab,bc");
  Rng rng(11);
  Relation original = RandomUniversal(schema.Relation(0), 50, 9, rng);

  Writer w;
  w.Begin(FrameType::kError);
  w.RelationData(original);
  std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);

  Reader r(body.data(), body.size());
  Relation decoded{AttrSet()};
  ASSERT_TRUE(r.RelationData(schema.Relation(0), &decoded));
  EXPECT_TRUE(r.AtEnd());
  EXPECT_TRUE(original.IdenticalTo(decoded));
  EXPECT_EQ(original.IsCanonical(), decoded.IsCanonical());
}

// One column block of encoded relation data, as read back from the wire.
struct ColumnBlock {
  int64_t base;
  uint8_t width;
};

// Walks relation data in the wire layout (varint arity, u8 canonical,
// varint rows, then per column: zigzag base, u8 width, rows × width bytes)
// and returns each column's frame of reference.
std::vector<ColumnBlock> ColumnBlocks(const std::vector<uint8_t>& body) {
  Reader r(body.data(), body.size());
  uint64_t arity = 0, rows = 0;
  uint8_t canonical = 0;
  EXPECT_TRUE(r.Varint(&arity) && r.U8(&canonical) && r.Varint(&rows));
  std::vector<ColumnBlock> blocks;
  for (uint64_t c = 0; c < arity; ++c) {
    ColumnBlock b{};
    EXPECT_TRUE(r.Zigzag(&b.base) && r.U8(&b.width));
    for (uint64_t i = 0; i < rows * b.width; ++i) {
      uint8_t skipped;
      EXPECT_TRUE(r.U8(&skipped));
    }
    blocks.push_back(b);
  }
  EXPECT_TRUE(r.AtEnd());
  return blocks;
}

// Encodes `rel` as the only content of a frame body.
std::vector<uint8_t> EncodeRelation(const Relation& rel) {
  Writer w;
  w.Begin(FrameType::kError);
  w.RelationData(rel);
  return Body(w.Finish(), FrameType::kError);
}

// Decodes a body holding exactly one relation over `schema`.
bool DecodeRelation(const std::vector<uint8_t>& body, const AttrSet& schema,
                    Relation* out) {
  Reader r(body.data(), body.size());
  return r.RelationData(schema, out) && r.AtEnd();
}

TEST(FrameCodecTest, RelationDataRoundTripsEdgeColumns) {
  Catalog catalog;
  const AttrSet ab = ParseAttrSet(catalog, "ab");
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();

  // INT64_MIN and INT64_MAX in one column span the whole u64 range: width
  // 8, and value − base wraps. Column b is all-equal: width 1, all zeros.
  Relation extremes(ab);
  extremes.AddRow({kMax, 7});
  extremes.AddRow({kMin, 7});
  extremes.AddRow({0, 7});
  std::vector<uint8_t> body = EncodeRelation(extremes);
  std::vector<ColumnBlock> blocks = ColumnBlocks(body);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].base, kMin);
  EXPECT_EQ(blocks[0].width, 8);
  EXPECT_EQ(blocks[1].base, 7);
  EXPECT_EQ(blocks[1].width, 1);
  Relation decoded{AttrSet()};
  ASSERT_TRUE(DecodeRelation(body, ab, &decoded));
  EXPECT_TRUE(extremes.IdenticalTo(decoded));
  EXPECT_FALSE(decoded.IsCanonical());

  // Negative values: the base is the (negative) minimum, the width covers
  // the span. The rows are canonical, and the flag survives the trip.
  Relation negative(ab);
  negative.AddRow({-1000, -1});
  negative.AddRow({-5, -300});
  negative.AddRow({-3, 0});
  negative.MarkCanonical();
  body = EncodeRelation(negative);
  blocks = ColumnBlocks(body);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].base, -1000);
  EXPECT_EQ(blocks[0].width, 2);  // span 997
  EXPECT_EQ(blocks[1].base, -300);
  EXPECT_EQ(blocks[1].width, 2);  // span 300
  ASSERT_TRUE(DecodeRelation(body, ab, &decoded));
  EXPECT_TRUE(negative.IdenticalTo(decoded));
  EXPECT_TRUE(decoded.IsCanonical());

  // Every width from 1 to 8 bytes in the last column, whose final values
  // sit at the end of the frame where an 8-byte load would overrun it.
  for (int width = 1; width <= 8; ++width) {
    const Value top = width == 8 ? kMax : (Value{1} << (8 * width)) - 1;
    Relation r(ab);
    for (int i = 0; i < 20; ++i) r.AddRow({0, i});
    r.AddRow({1, top});
    body = EncodeRelation(r);
    blocks = ColumnBlocks(body);
    ASSERT_EQ(blocks.size(), 2u);
    EXPECT_EQ(blocks[1].width, width);
    ASSERT_TRUE(DecodeRelation(body, ab, &decoded)) << "width " << width;
    EXPECT_TRUE(r.IdenticalTo(decoded)) << "width " << width;
  }

  // Zero rows (an empty relation is canonical): each column still carries
  // its header, with the minimum width.
  const Relation none(ab);
  body = EncodeRelation(none);
  blocks = ColumnBlocks(body);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0].width, 1);
  EXPECT_EQ(blocks[1].width, 1);
  ASSERT_TRUE(DecodeRelation(body, ab, &decoded));
  EXPECT_TRUE(none.IdenticalTo(decoded));

  // Zero arity: no column blocks, and 0 or 1 rows under either flag.
  Relation nullary{AttrSet()};
  body = EncodeRelation(nullary);
  EXPECT_TRUE(ColumnBlocks(body).empty());
  ASSERT_TRUE(DecodeRelation(body, AttrSet(), &decoded));
  EXPECT_TRUE(nullary.IdenticalTo(decoded));
  nullary.AddRow({});
  ASSERT_FALSE(nullary.IsCanonical());
  body = EncodeRelation(nullary);
  ASSERT_TRUE(DecodeRelation(body, AttrSet(), &decoded));
  EXPECT_TRUE(nullary.IdenticalTo(decoded));
  EXPECT_EQ(decoded.NumRows(), 1);
  nullary.MarkCanonical();
  body = EncodeRelation(nullary);
  ASSERT_TRUE(DecodeRelation(body, AttrSet(), &decoded));
  EXPECT_TRUE(nullary.IdenticalTo(decoded));
  EXPECT_TRUE(decoded.IsCanonical());
}

TEST(FrameCodecTest, RelationDataRejectsHostileClaims) {
  Catalog catalog;
  DatabaseSchema schema = ParseSchema(catalog, "ab");
  const AttrSet rel = schema.Relation(0);

  // Arity mismatch with the schema. The frame is otherwise well formed —
  // one row and a complete block for each of the three claimed columns — so
  // only the arity check can reject it.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(3);  // claimed arity; the schema says 2
    w.U8(0);
    w.Varint(1);
    for (int c = 0; c < 3; ++c) {
      w.Zigzag(0);  // base 0, width 1, value 0
      w.U8(1);
      w.U8(0);
    }
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Relation out{AttrSet()};
    EXPECT_FALSE(DecodeRelation(body, rel, &out));
  }
  // A row count far beyond the bytes present must be rejected before any
  // allocation (every value is at least one wire byte).
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(2);
    w.U8(0);
    w.Varint(1ull << 40);  // ~10^12 rows announced, 0 bytes follow
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Relation out{AttrSet()};
    EXPECT_FALSE(DecodeRelation(body, rel, &out));
  }
  // A row count whose product with the arity wraps to 0 in 64 bits.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(2);
    w.U8(0);
    w.Varint(1ull << 63);
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Relation out{AttrSet()};
    EXPECT_FALSE(DecodeRelation(body, rel, &out));
  }
  // A canonical flag other than 0 or 1, on an otherwise valid relation.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(2);
    w.U8(2);
    w.Varint(1);
    for (int c = 0; c < 2; ++c) {
      w.Zigzag(0);
      w.U8(1);
      w.U8(0);
    }
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Relation out{AttrSet()};
    EXPECT_FALSE(DecodeRelation(body, rel, &out));
  }
  // A zero-arity relation holds at most one row; it carries no bytes, so
  // only that bound stops a larger claim.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(0);
    w.U8(0);
    w.Varint(2);
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Relation out{AttrSet()};
    EXPECT_FALSE(DecodeRelation(body, AttrSet(), &out));
  }
  // A false canonical claim (rows out of order) is malformed input: the
  // decoder verifies rather than trusts, so downstream set semantics and
  // debug assertions stay safe.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(2);
    w.U8(1);  // claims canonical
    w.Varint(2);
    w.Zigzag(1);  // column a: base 1, width 1, values 9, 1 — not ascending
    w.U8(1);
    w.U8(8);
    w.U8(0);
    w.Zigzag(0);  // column b: base 0, width 1, values 0, 0
    w.U8(1);
    w.U8(0);
    w.U8(0);
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Relation out{AttrSet()};
    EXPECT_FALSE(DecodeRelation(body, rel, &out));
  }
  // The same rows without the claim decode fine.
  {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(2);
    w.U8(0);
    w.Varint(2);
    w.Zigzag(1);
    w.U8(1);
    w.U8(8);
    w.U8(0);
    w.Zigzag(0);
    w.U8(1);
    w.U8(0);
    w.U8(0);
    std::vector<uint8_t> body = Body(w.Finish(), FrameType::kError);
    Relation out{AttrSet()};
    EXPECT_TRUE(DecodeRelation(body, rel, &out));
    EXPECT_EQ(out.NumRows(), 2);
    EXPECT_FALSE(out.IsCanonical());
    EXPECT_EQ(out.Cell(0, 0), 9);
    EXPECT_EQ(out.Cell(1, 0), 1);
  }
}

TEST(FrameCodecTest, RelationDataVerifiesCanonicalClaimsColumnByColumn) {
  Catalog catalog;
  const AttrSet abc = ParseAttrSet(catalog, "abc");
  Relation out{AttrSet()};
  // Decodes `rows` with the canonical flag forced on, true or not.
  auto accepts_claim = [&](std::initializer_list<std::vector<Value>> rows) {
    Relation r(abc);
    for (const std::vector<Value>& row : rows) r.AddRow(row);
    std::vector<uint8_t> body = EncodeRelation(r);
    body[1] = 1;  // after the 1-byte arity varint: the canonical flag
    return DecodeRelation(body, abc, &out);
  };
  // Ties in the leading columns resolved upward by a later column.
  EXPECT_TRUE(accepts_claim({{1, 1, 1}, {1, 1, 2}, {1, 2, 0}, {2, 0, 0}}));
  EXPECT_TRUE(out.IsCanonical());
  // A descent on column a, whatever the later columns do.
  EXPECT_FALSE(accepts_claim({{2, 0, 0}, {1, 5, 5}}));
  // A tie on column a broken downward on column b.
  EXPECT_FALSE(accepts_claim({{1, 5, 0}, {1, 4, 9}}));
  // A tie on columns a and b broken downward on the last column.
  EXPECT_FALSE(accepts_claim({{0, 0, 0}, {1, 2, 3}, {1, 2, 2}}));
  // A duplicate row: tied on every column.
  EXPECT_FALSE(accepts_claim({{1, 2, 3}, {1, 2, 3}, {4, 0, 0}}));
}

TEST(FrameCodecTest, RelationDataRejectsBadColumnBlocks) {
  Catalog catalog;
  const AttrSet a = ParseAttrSet(catalog, "a");
  // One column of two rows: arity 1, flag 0, rows 2, then the block header
  // (zigzag base, u8 width) and `bytes` column bytes.
  auto column = [](uint8_t width, size_t bytes) {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(1);
    w.U8(0);
    w.Varint(2);
    w.Zigzag(-4);
    w.U8(width);
    for (size_t i = 0; i < bytes; ++i) w.U8(static_cast<uint8_t>(i));
    return Body(w.Finish(), FrameType::kError);
  };
  // The decoder alone must refuse: no end-of-body check behind it.
  Relation out{AttrSet()};
  auto decodes = [&](const std::vector<uint8_t>& body) {
    Reader r(body.data(), body.size());
    return r.RelationData(a, &out);
  };
  // Widths outside [1, 8], with enough bytes behind them for any width.
  EXPECT_FALSE(decodes(column(0, 16)));
  EXPECT_FALSE(decodes(column(9, 18)));
  // rows × width beyond the remaining bytes (2 × 4 = 8 > 7).
  EXPECT_FALSE(decodes(column(4, 7)));
  // The same block complete decodes: base −4 plus little-endian deltas.
  ASSERT_TRUE(DecodeRelation(column(4, 8), a, &out));
  EXPECT_EQ(out.Cell(0, 0), -4 + 0x03020100);
  EXPECT_EQ(out.Cell(1, 0), -4 + 0x07060504);
  // A truncated column header, on a zero-row column so that the row-count
  // bound passes: the base varint cut mid-way, or the width byte missing.
  // With both fields whole, the same column decodes.
  for (int whole_fields : {0, 1, 2}) {
    Writer w;
    w.Begin(FrameType::kError);
    w.Varint(1);
    w.U8(0);
    w.Varint(0);
    if (whole_fields == 0) w.U8(0x80);  // continuation set, nothing follows
    if (whole_fields >= 1) w.Zigzag(-4);
    if (whole_fields == 2) w.U8(1);
    EXPECT_EQ(decodes(Body(w.Finish(), FrameType::kError)), whole_fields == 2)
        << "whole header fields: " << whole_fields;
  }
}

TEST(FrameCodecTest, RelationDataBeyondThePayloadCapYieldsAnEmptyFrame) {
  Catalog catalog;
  Relation r(ParseAttrSet(catalog, "ab"));
  for (int i = 0; i < 100; ++i) r.AddRow({i, 1000 * i});
  Writer unbounded;
  unbounded.Begin(FrameType::kError);
  unbounded.RelationData(r);
  const size_t payload = unbounded.Finish().size() - kFrameHeaderBytes;

  // A cap of exactly the payload fits; one byte less drops the whole block
  // and the frame.
  Writer w;
  w.LimitPayload(payload);
  w.Begin(FrameType::kError);
  w.RelationData(r);
  EXPECT_FALSE(w.Overflowed());
  EXPECT_EQ(w.Finish().size(), payload + kFrameHeaderBytes);
  w.LimitPayload(payload - 1);
  w.Begin(FrameType::kError);
  w.RelationData(r);
  EXPECT_TRUE(w.Overflowed());
  EXPECT_TRUE(w.Finish().empty());
}

TEST(FrameCodecTest, QueryRequestRoundTrips) {
  Catalog build_catalog;
  DatabaseSchema schema = ParseSchema(build_catalog, "ab,bc,cd");
  Rng rng(3);
  Relation universal = RandomUniversal(schema.Universe(), 40, 7, rng);

  QueryRequest request;
  request.schema_spec = "ab,bc,cd";
  request.target_spec = "ad";
  request.strategy = Strategy::kYannakakis;
  request.deadline_ms = 250;
  request.submitter = 42;
  request.deterministic = true;
  request.want_plan = true;
  request.states = ProjectDatabase(universal, schema);
  std::vector<uint8_t> frame = EncodeQueryRequest(request);
  std::vector<uint8_t> body = Body(frame, FrameType::kQueryRequest);

  Catalog catalog;
  QueryRequest decoded;
  DatabaseSchema decoded_schema;
  AttrSet target;
  std::string error;
  ASSERT_TRUE(DecodeQueryRequest(body.data(), body.size(), catalog, &decoded,
                                 &decoded_schema, &target, &error))
      << error;
  EXPECT_EQ(decoded.schema_spec, request.schema_spec);
  EXPECT_EQ(decoded.strategy, Strategy::kYannakakis);
  EXPECT_EQ(decoded.deadline_ms, 250u);
  EXPECT_EQ(decoded.submitter, 42u);
  EXPECT_TRUE(decoded.deterministic);
  EXPECT_TRUE(decoded.want_plan);
  EXPECT_EQ(decoded_schema.NumRelations(), 3);
  ASSERT_EQ(decoded.states.size(), request.states.size());
  for (size_t i = 0; i < request.states.size(); ++i) {
    EXPECT_TRUE(request.states[i].IdenticalTo(decoded.states[i]))
        << "state " << i;
  }
}

TEST(FrameCodecTest, QueryRequestRejectsMalformedInput) {
  Catalog build_catalog;
  DatabaseSchema schema = ParseSchema(build_catalog, "ab,bc");
  Rng rng(5);
  QueryRequest request;
  request.schema_spec = "ab,bc";
  request.target_spec = "ac";
  request.states = ProjectDatabase(
      RandomUniversal(schema.Universe(), 10, 5, rng), schema);
  std::vector<uint8_t> frame = EncodeQueryRequest(request);
  std::vector<uint8_t> body = Body(frame, FrameType::kQueryRequest);

  Catalog catalog;
  QueryRequest decoded;
  DatabaseSchema decoded_schema;
  AttrSet target;
  std::string error;

  // Every truncation point of a valid request must fail cleanly. This walks
  // all of them, which is cheap at this body size.
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeQueryRequest(body.data(), cut, catalog, &decoded,
                                    &decoded_schema, &target, &error))
        << "decoded a prefix of " << cut << " bytes";
  }
  // Trailing garbage is also malformed — a frame is exactly one message.
  std::vector<uint8_t> padded = body;
  padded.push_back(0);
  EXPECT_FALSE(DecodeQueryRequest(padded.data(), padded.size(), catalog,
                                  &decoded, &decoded_schema, &target,
                                  &error));
  // Unknown strategy byte.
  std::vector<uint8_t> bad = body;
  // Layout: str schema (1+5), str target (1+2), strategy byte next.
  bad[9] = 200;
  EXPECT_FALSE(DecodeQueryRequest(bad.data(), bad.size(), catalog, &decoded,
                                  &decoded_schema, &target, &error));

  // Schema specs the CLI parser would abort on must come back as errors.
  QueryRequest empty_rel = request;
  empty_rel.schema_spec = "ab,,bc";
  empty_rel.states.clear();
  frame = EncodeQueryRequest(empty_rel);
  body = Body(frame, FrameType::kQueryRequest);
  EXPECT_FALSE(DecodeQueryRequest(body.data(), body.size(), catalog, &decoded,
                                  &decoded_schema, &target, &error));
  EXPECT_EQ(error, "empty relation in schema spec");
}

TEST(FrameCodecTest, QueryRequestRejectsTargetOutsideSchemaUniverse) {
  // A parseable target whose attributes are not all in the schema would
  // abort downstream (program construction GYO_CHECKs target ⊆ universe);
  // the decoder must reject it as malformed input instead.
  Catalog build_catalog;
  DatabaseSchema schema = ParseSchema(build_catalog, "ab,bc");
  Rng rng(13);
  QueryRequest request;
  request.schema_spec = "ab,bc";
  request.target_spec = "az";  // 'z' appears in no relation
  request.states = ProjectDatabase(
      RandomUniversal(schema.Universe(), 10, 5, rng), schema);
  std::vector<uint8_t> body =
      Body(EncodeQueryRequest(request), FrameType::kQueryRequest);

  Catalog catalog;
  QueryRequest decoded;
  DatabaseSchema decoded_schema;
  AttrSet target;
  std::string error;
  EXPECT_FALSE(DecodeQueryRequest(body.data(), body.size(), catalog, &decoded,
                                  &decoded_schema, &target, &error));
  EXPECT_EQ(error, "target attribute outside the schema universe");
}

TEST(FrameCodecTest, WriterRefusesToEmitAFrameBeyondItsPayloadCap) {
  Writer w;
  w.LimitPayload(16);
  w.Begin(FrameType::kError);
  w.Str("this string does not fit in sixteen payload bytes");
  EXPECT_TRUE(w.Overflowed());
  EXPECT_TRUE(w.Finish().empty());

  // The cap survives Begin(), and a fitting payload still encodes.
  w.Begin(FrameType::kError);
  w.Str("ok");
  EXPECT_FALSE(w.Overflowed());
  EXPECT_FALSE(w.Finish().empty());

  // Encoders surface the cap as an empty frame, which the server replaces
  // with a typed kInternal error rather than a lying length prefix.
  Catalog catalog;
  QueryResponse response;
  response.result = Relation(ParseAttrSet(catalog, "ab"));
  for (int i = 0; i < 100; ++i) response.result.AddRow({i, i});
  EXPECT_TRUE(EncodeQueryResponse(response, 64).empty());
  EXPECT_FALSE(EncodeQueryResponse(response).empty());
}

TEST(FrameCodecTest, QueryResponseRoundTrips) {
  Catalog catalog;
  const AttrSet target = ParseAttrSet(catalog, "ad");
  QueryResponse response;
  response.result = Relation(target);
  response.result.AddRow({1, 2});
  response.result.AddRow({3, 4});
  response.result.MarkCanonical();
  response.stats.max_intermediate_rows = 100;
  response.stats.total_rows_produced = 123;
  response.stats.result_rows = 2;
  // Every counter gets a distinct value, set by name, so the pinned bytes
  // below catch a counter that moved within the table, not only a lost one.
  exec::QueryStats& q = response.query_stats;
  q.queue_wait_seconds = 0.25;
  q.run_time_seconds = 1.5;
  q.tasks = 100;
  q.morsels = 201;
  q.peak_state_bytes = 302;
  q.retired_states = 403;
  q.probe_rows_pruned = 504;
  q.tasks_stolen = 605;
  q.affinity_hits = 706;
  q.affinity_misses = 807;
  q.queue_depth_at_admit = 908;
  q.plan_cache_hits = 1009;
  q.state_cache_hits = 1110;
  q.delta_rounds = 1211;
  q.rows_rescanned = 1312;
  q.sip_rows_pruned = 1413;
  q.zone_map_skips = 1514;
  response.has_plan = true;
  response.plan.num_statements = 8;
  response.plan.critical_path = 7;
  response.plan.num_source_statements = 1;
  response.plan.strategy = Strategy::kYannakakis;

  const std::vector<uint8_t> frame = EncodeQueryResponse(response);
  std::vector<uint8_t> body = Body(frame, FrameType::kQueryResponse);
  QueryResponse decoded;
  std::string error;
  ASSERT_TRUE(DecodeQueryResponse(body.data(), body.size(), target, &decoded,
                                  &error))
      << error;
  EXPECT_TRUE(response.result.IdenticalTo(decoded.result));
  EXPECT_EQ(decoded.stats.max_intermediate_rows, 100);
  EXPECT_EQ(decoded.stats.result_rows, 2);
  EXPECT_EQ(decoded.query_stats.queue_wait_seconds, 0.25);
  EXPECT_EQ(decoded.query_stats.run_time_seconds, 1.5);
  ExpectDistinctCounters(decoded.query_stats);
  ASSERT_TRUE(decoded.has_plan);
  EXPECT_EQ(decoded.plan.num_statements, 8);
  EXPECT_EQ(decoded.plan.critical_path, 7);
  EXPECT_EQ(decoded.plan.strategy, Strategy::kYannakakis);

  // The counter block's layout is frozen: these are the bytes this
  // response encodes to (header, flags, result, program stats, durations,
  // the 15 counters in table order, plan info). Adding a counter to the
  // table, or removing one, shifts everything after it, so either means
  // capturing this pin again.
  const std::vector<uint8_t> pinned = {
      0x44, 0x00, 0x00, 0x00, 0x03, 0x01, 0x02, 0x01, 0x02, 0x02, 0x01, 0x00,
      0x02, 0x04, 0x01, 0x00, 0x02, 0xc8, 0x01, 0xf6, 0x01, 0x04, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xf8, 0x3f, 0xc8, 0x01, 0x92, 0x03, 0xdc, 0x04, 0xa6, 0x06, 0xf0, 0x07,
      0xba, 0x09, 0x84, 0x0b, 0xce, 0x0c, 0x98, 0x0e, 0xe2, 0x0f, 0xac, 0x11,
      0xf6, 0x12, 0xc0, 0x14, 0x8a, 0x16, 0xd4, 0x17, 0x08, 0x07, 0x01, 0x03};
  EXPECT_EQ(frame, pinned);
}

TEST(FrameCodecTest, StatusResponseRoundTrips) {
  StatusResponse status;
  status.pool.threads = 4;
  status.pool.max_concurrent_queries = 2;
  status.pool.running = 2;
  status.pool.waiting = 3;
  status.pool.submitters.push_back({7, 1, 0});
  status.pool.submitters.push_back({9, 1, 3});
  status.connections_accepted = 10;
  status.connections_active = 4;
  status.queries_served = 25;
  status.queries_shed_deadline = 2;
  status.queries_shed_backlog = 1;
  status.protocol_errors = 3;
  status.draining = true;
  status.plan_cache_hits = 6;
  status.result_cache_misses = 11;
  SetDistinctCounters(&status.totals);

  std::vector<uint8_t> body =
      Body(EncodeStatusResponse(status), FrameType::kStatusResponse);
  StatusResponse decoded;
  std::string error;
  ASSERT_TRUE(
      DecodeStatusResponse(body.data(), body.size(), &decoded, &error))
      << error;
  EXPECT_EQ(decoded.pool.threads, 4);
  EXPECT_EQ(decoded.pool.waiting, 3);
  ASSERT_EQ(decoded.pool.submitters.size(), 2u);
  EXPECT_EQ(decoded.pool.submitters[1].id, 9u);
  EXPECT_EQ(decoded.pool.submitters[1].waiting, 3);
  EXPECT_EQ(decoded.queries_served, 25u);
  EXPECT_EQ(decoded.queries_shed_deadline, 2u);
  EXPECT_TRUE(decoded.draining);
  EXPECT_EQ(decoded.plan_cache_hits, 6u);
  EXPECT_EQ(decoded.result_cache_misses, 11u);
  ExpectDistinctCounters(decoded.totals);

  // A submitter count that promises more entries than the bytes on hand
  // fails before any allocation.
  std::vector<uint8_t> lying = body;
  lying[4] = 0x7f;  // pool header is five 1-byte varints; last is the count
  EXPECT_FALSE(
      DecodeStatusResponse(lying.data(), lying.size(), &decoded, &error));
}

TEST(FrameCodecTest, ErrorFrameRoundTripsAndValidates) {
  std::vector<uint8_t> body = Body(
      EncodeError(ErrorCode::kDeadlineExceeded, "too slow"), FrameType::kError);
  ErrorReply reply;
  std::string error;
  ASSERT_TRUE(DecodeError(body.data(), body.size(), &reply, &error)) << error;
  EXPECT_EQ(reply.code, ErrorCode::kDeadlineExceeded);
  EXPECT_EQ(reply.message, "too slow");
  EXPECT_STREQ(ErrorCodeName(reply.code), "deadline_exceeded");

  // Out-of-range code byte.
  std::vector<uint8_t> bad = body;
  bad[0] = 99;
  EXPECT_FALSE(DecodeError(bad.data(), bad.size(), &reply, &error));
}

TEST(FrameCodecTest, SafeParseRejectsWhatTheCliParserAbortsOn) {
  Catalog catalog;
  DatabaseSchema schema;
  AttrSet target;
  std::string error;
  EXPECT_FALSE(SafeParseSchema(catalog, "", &schema, &error));
  EXPECT_FALSE(SafeParseSchema(catalog, "ab,,cd", &schema, &error));
  EXPECT_FALSE(SafeParseSchema(catalog, ",ab", &schema, &error));
  EXPECT_FALSE(SafeParseSchema(catalog, "ab, \t ,cd", &schema, &error));
  EXPECT_FALSE(SafeParseAttrSet(catalog, "", &target, &error));
  EXPECT_FALSE(SafeParseAttrSet(catalog, "  ", &target, &error));
  EXPECT_TRUE(SafeParseSchema(catalog, "ab,bc,cd", &schema, &error));
  EXPECT_EQ(schema.NumRelations(), 3);
  EXPECT_TRUE(SafeParseAttrSet(catalog, "ad", &target, &error));
  EXPECT_EQ(target.Size(), 2);

  // The wire parser additionally bounds spec size and relation count so a
  // small hostile frame cannot force a huge parse.
  std::string huge(100000, 'a');
  EXPECT_FALSE(SafeParseSchema(catalog, huge, &schema, &error));
  std::string many = "ab";
  for (int i = 0; i < 2000; ++i) many += ",ab";
  EXPECT_FALSE(SafeParseSchema(catalog, many, &schema, &error));
}

}  // namespace
}  // namespace serve
}  // namespace gyo

#include "cache/fingerprint.h"

#include <unordered_map>

#include "util/check.h"

namespace gyo {
namespace cache {

namespace {

// FNV-1a offset bases / primes for the two lanes, lane 2 offset by an
// arbitrary odd constant so the lanes decorrelate even on equal seeds.
constexpr uint64_t kOffset1 = 0xcbf29ce484222325ULL;
constexpr uint64_t kOffset2 = 0x9ae16a3b2f90404fULL;
constexpr uint64_t kPrime1 = 0x100000001b3ULL;
constexpr uint64_t kPrime2 = 0xc6a4a7935bd1e995ULL;

}  // namespace

uint64_t Avalanche64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

namespace {
constexpr auto Avalanche = Avalanche64;
}  // namespace

FingerprintMixer::FingerprintMixer(uint64_t seed)
    : lo_(kOffset1 ^ seed), hi_(kOffset2 ^ Avalanche(seed + 1)) {}

namespace {

// One absorb step of a mixer's two lanes; `mixed` is Avalanche(word).
inline void MixLanes(uint64_t& lo, uint64_t& hi, uint64_t word,
                     uint64_t mixed) {
  lo = (lo ^ word) * kPrime1;
  hi = (hi ^ mixed) * kPrime2;
}

template <class Mixer>
void AbsorbAttrSetInto(Mixer& mixer, const AttrSet& s) {
  mixer.Absorb(static_cast<uint64_t>(s.Size()));
  s.ForEach([&](AttrId a) { mixer.Absorb(static_cast<uint64_t>(a)); });
}

// The word sequence a database fingerprint absorbs: schema structure,
// target, then every relation's row count, canonical flag, and column
// arenas.
template <class Mixer>
void AbsorbDatabase(Mixer& mixer, const DatabaseSchema& d,
                    const AttrSet& target,
                    const std::vector<Relation>& states) {
  GYO_CHECK(static_cast<int>(states.size()) == d.NumRelations());
  mixer.Absorb(static_cast<uint64_t>(d.NumRelations()));
  for (int i = 0; i < d.NumRelations(); ++i) AbsorbAttrSetInto(mixer, d[i]);
  mixer.Absorb(~uint64_t{0});
  AbsorbAttrSetInto(mixer, target);
  for (const Relation& r : states) {
    mixer.Absorb(static_cast<uint64_t>(r.NumRows()));
    mixer.Absorb(r.IsCanonical() ? 1 : 0);
    for (int c = 0; c < r.Arity(); ++c) {
      const Value* col = r.ColData(c);
      for (int64_t i = 0; i < r.NumRows(); ++i) {
        mixer.Absorb(static_cast<uint64_t>(col[i]));
      }
    }
  }
}

}  // namespace

void FingerprintMixer::Absorb(uint64_t word) {
  MixLanes(lo_, hi_, word, Avalanche(word));
}

void FingerprintMixer::AbsorbAttrSet(const AttrSet& s) {
  AbsorbAttrSetInto(*this, s);
}

Fingerprint FingerprintMixer::Digest() const {
  return Fingerprint{Avalanche(lo_), Avalanche(hi_)};
}

// Two FingerprintMixers under different seeds, fed the same words in
// lockstep: each word is avalanched once for both.
class FingerprintMixerPair {
 public:
  FingerprintMixerPair(uint64_t seed_a, uint64_t seed_b)
      : a_(seed_a), b_(seed_b) {}
  void Absorb(uint64_t word) {
    const uint64_t mixed = Avalanche(word);
    MixLanes(a_.lo_, a_.hi_, word, mixed);
    MixLanes(b_.lo_, b_.hi_, word, mixed);
  }
  Fingerprint DigestA() const { return a_.Digest(); }
  Fingerprint DigestB() const { return b_.Digest(); }

 private:
  FingerprintMixer a_;
  FingerprintMixer b_;
};

bool CanonicalQuery::SameShape(const DatabaseSchema& other_schema,
                               const AttrSet& other_target) const {
  if (schema.NumRelations() != other_schema.NumRelations()) return false;
  for (int i = 0; i < schema.NumRelations(); ++i) {
    if (schema[i] != other_schema[i]) return false;
  }
  return target == other_target;
}

CanonicalQuery CanonicalizeQuery(const DatabaseSchema& d,
                                 const AttrSet& target) {
  CanonicalQuery out;
  std::unordered_map<AttrId, AttrId> to_canonical;
  auto canon = [&](AttrId a) {
    auto it = to_canonical.find(a);
    if (it != to_canonical.end()) return it->second;
    AttrId c = static_cast<AttrId>(out.canonical_to_caller.size());
    to_canonical.emplace(a, c);
    out.canonical_to_caller.push_back(a);
    return c;
  };
  std::vector<RelationSchema> relabeled;
  relabeled.reserve(static_cast<size_t>(d.NumRelations()));
  for (int i = 0; i < d.NumRelations(); ++i) {
    AttrSet r;
    d[i].ForEach([&](AttrId a) { r.Insert(canon(a)); });
    relabeled.push_back(std::move(r));
  }
  out.schema = DatabaseSchema(std::move(relabeled));
  target.ForEach([&](AttrId a) { out.target.Insert(canon(a)); });

  FingerprintMixer mixer(/*seed=*/0x67796f00U);  // "gyo\0"
  mixer.Absorb(static_cast<uint64_t>(out.schema.NumRelations()));
  for (int i = 0; i < out.schema.NumRelations(); ++i) {
    mixer.AbsorbAttrSet(out.schema[i]);
  }
  mixer.Absorb(~uint64_t{0});  // schema/target sentinel
  mixer.AbsorbAttrSet(out.target);
  out.fingerprint = mixer.Digest();
  return out;
}

Fingerprint FingerprintDatabase(const DatabaseSchema& d, const AttrSet& target,
                                const std::vector<Relation>& states,
                                uint64_t seed) {
  FingerprintMixer mixer(seed);
  AbsorbDatabase(mixer, d, target, states);
  return mixer.Digest();
}

void FingerprintDatabasePair(const DatabaseSchema& d, const AttrSet& target,
                             const std::vector<Relation>& states,
                             uint64_t seed_a, uint64_t seed_b, Fingerprint* a,
                             Fingerprint* b) {
  FingerprintMixerPair mixers(seed_a, seed_b);
  AbsorbDatabase(mixers, d, target, states);
  *a = mixers.DigestA();
  *b = mixers.DigestB();
}

}  // namespace cache
}  // namespace gyo

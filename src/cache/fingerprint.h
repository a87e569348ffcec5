#ifndef GYO_CACHE_FINGERPRINT_H_
#define GYO_CACHE_FINGERPRINT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rel/relation.h"
#include "schema/schema.h"
#include "util/attr_set.h"

namespace gyo {
namespace cache {

/// A 128-bit content fingerprint — the cache-key discipline throughout
/// src/cache/: keys are fingerprints, and every fingerprinted structure that
/// can afford it (the plan cache's canonical schemas) is additionally stored
/// and compared exactly on lookup, so a hash collision degrades to a cache
/// miss, never to a wrong answer. Where exact comparison is too expensive
/// (the serve result cache's full database contents) two independently
/// seeded fingerprints are combined into a 256-bit key instead.
struct Fingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;

  friend bool operator==(const Fingerprint& a, const Fingerprint& b) {
    return a.lo == b.lo && a.hi == b.hi;
  }
  friend bool operator!=(const Fingerprint& a, const Fingerprint& b) {
    return !(a == b);
  }
  friend bool operator<(const Fingerprint& a, const Fingerprint& b) {
    return a.hi != b.hi ? a.hi < b.hi : a.lo < b.lo;
  }
};

struct FingerprintHash {
  size_t operator()(const Fingerprint& f) const {
    // The lanes are already avalanched; fold them.
    return static_cast<size_t>(f.lo ^ (f.hi * 0x9e3779b97f4a7c15ULL));
  }
};

/// A 64-bit finalizer (murmur3-style) — exposed for callers that need to
/// derive decorrelated seeds from one word.
uint64_t Avalanche64(uint64_t x);

/// Incremental 128-bit mixer: two FNV-1a-style lanes with distinct primes,
/// avalanched on Digest(). Word-at-a-time absorption — the callers feed
/// structure (lengths, sentinels) explicitly, so concatenation ambiguities
/// cannot alias two different inputs.
class FingerprintMixer {
 public:
  explicit FingerprintMixer(uint64_t seed = 0);
  void Absorb(uint64_t word);
  void AbsorbAttrSet(const AttrSet& s);
  Fingerprint Digest() const;

 private:
  friend class FingerprintMixerPair;  // fingerprint.cc

  uint64_t lo_;
  uint64_t hi_;
};

/// A query hypergraph relabeled onto canonical attribute ids — dense ids
/// 0..k-1 assigned by first occurrence scanning the relations in order (and
/// attributes within a relation in increasing caller id), then the target.
/// Two schemas that differ only by an order-preserving renaming of their
/// attributes canonicalize identically; in particular, every schema parsed
/// through a fresh first-appearance Catalog (the gyo_serve request path) is
/// already in canonical form, so its relabeling is the identity.
struct CanonicalQuery {
  /// The schema and target with attributes replaced by canonical ids.
  DatabaseSchema schema;
  AttrSet target;
  /// canonical_to_caller[c] is the caller attribute the canonical id c
  /// stands for — the inverse relabeling used to map a cached program's
  /// projection targets back into the caller's attribute space.
  std::vector<AttrId> canonical_to_caller;
  /// Fingerprint of (schema, target) in canonical space.
  Fingerprint fingerprint;

  /// True iff `other` names the same canonical hypergraph — the exact
  /// comparison that backs up the fingerprint on plan-cache lookups.
  bool SameShape(const DatabaseSchema& other_schema,
                 const AttrSet& other_target) const;
};

/// Canonicalizes (d, target) as described above. Target attributes outside
/// the schema universe get canonical ids too (after all schema attributes),
/// so any well-formed or malformed pair fingerprints deterministically.
CanonicalQuery CanonicalizeQuery(const DatabaseSchema& d,
                                 const AttrSet& target);

/// Content fingerprint of a full database instance in *caller* attribute
/// space: schema structure, target, then every relation's row count,
/// canonical flag, and column arenas. O(total values) single pass. Distinct
/// seeds give independent fingerprints (the serve result cache combines two
/// into its 256-bit data key).
Fingerprint FingerprintDatabase(const DatabaseSchema& d, const AttrSet& target,
                                const std::vector<Relation>& states,
                                uint64_t seed);

/// FingerprintDatabase under two seeds in one sweep over the column arenas:
/// the two mixers advance in lockstep and share each word's avalanche (it
/// does not depend on the seed), leaving four independent multiply chains
/// per word. *a and *b equal FingerprintDatabase(..., seed_a) and
/// FingerprintDatabase(..., seed_b) bit for bit.
void FingerprintDatabasePair(const DatabaseSchema& d, const AttrSet& target,
                             const std::vector<Relation>& states,
                             uint64_t seed_a, uint64_t seed_b, Fingerprint* a,
                             Fingerprint* b);

}  // namespace cache
}  // namespace gyo

#endif  // GYO_CACHE_FINGERPRINT_H_

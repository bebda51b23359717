// NIST P-256 (secp256r1) group arithmetic.
//
// Field and scalar arithmetic use a fixed-size 4x64-limb Montgomery
// implementation (generic over any odd 256-bit modulus, so the same code
// serves both the field prime p and the group order n). Points are held in
// Jacobian projective coordinates in the Montgomery domain.
//
// This backs both ECDHE key exchange and ECDSA certificate signatures — the
// dominant asymmetric cost in the Figure-5 handshake CPU experiment, which is
// why it gets a dedicated implementation instead of the generic BigInt.
//
// Two implementations coexist:
//  * the fast path:
//    - `mul_base` (secret scalar): a precomputed 64x15 comb table of
//      generator multiples (public constants), one mixed addition per 4-bit
//      window and no doublings;
//    - `mul` (secret scalar): a fixed w=4 window over a per-call 15-entry
//      table of the input point;
//    - `mul_add` and `mul_add_x_equals` (ECDSA verify, public scalars): one
//      interleaved width-5 wNAF ladder. Both scalars share a single chain of
//      doublings; G's odd multiples 1G..15G come from the comb table's first
//      row and Q's from a per-call 8-entry table (1Q, 3Q, ..., 15Q), a
//      negative digit adding the negated entry. `mul_add` converts the
//      result with `to_affine`; `mul_add_x_equals` never leaves Jacobian
//      coordinates: x(R) mod n == r holds iff X == r*Z^2 or, when r + n < p,
//      X == (r+n)*Z^2, so ECDSA verification needs no field inversion.
//    Field inversion mod p (`inv_p`, used by `to_affine` and the batched
//    table conversion) is a fixed addition chain for p - 2: 255 squarings
//    and 12 multiplications, where Fermat's square-and-multiply needs about
//    128 multiplications. The chain is the same for every input, which
//    matters because `to_affine` also runs on secret-derived points (ECDH).
//    Inversion mod n stays Fermat (`Mont::inv`).
//  * the reference path — the original double-and-add ladder, kept as the
//    differential-test oracle (`*_reference`). Building with
//    -DMBTLS_REFERENCE_CRYPTO routes the public API back to it.
//
// Timing: the secret-scalar paths (`mul`, `mul_base`, hence ECDH and ECDSA
// signing) select window entries with a constant-time scan over the whole
// table (see `ct_select_window`), never by secret index, and their additions
// resolve the degenerate cases with masked moves. The wNAF ladder branches
// on its digits and indexes its tables with them, and the wNAF recoding
// loops over the scalar's bits: it is variable-time, which is safe only
// because every input it sees in ECDSA verification (u1, u2, Q, r) is
// public. No secret scalar may reach `mul_add`, `mul_add_x_equals` or
// `wnaf5`. The field layer itself (`Mont`) still branches on its final
// subtractions for every caller (ROADMAP: constant-time field).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>

#include "crypto/drbg.h"
#include "util/bytes.h"

namespace mbtls::ec {

/// 256-bit value, 4 little-endian 64-bit limbs.
struct U256 {
  std::array<std::uint64_t, 4> w{};

  static U256 from_bytes(ByteView be32);  // exactly 32 big-endian bytes
  Bytes to_bytes() const;                 // 32 big-endian bytes

  bool operator==(const U256&) const = default;
  bool is_zero() const { return w[0] == 0 && w[1] == 0 && w[2] == 0 && w[3] == 0; }
  bool bit(std::size_t i) const { return (w[i / 64] >> (i % 64)) & 1; }
};

/// Montgomery arithmetic context modulo an odd 256-bit modulus.
class Mont {
 public:
  explicit Mont(const U256& modulus);

  const U256& modulus() const { return n_; }

  U256 to_mont(const U256& a) const { return mul(a, r2_); }
  U256 from_mont(const U256& a) const;

  // All of these operate on Montgomery-domain values (except add/sub, which
  // are domain-agnostic residue arithmetic).
  U256 add(const U256& a, const U256& b) const;
  U256 sub(const U256& a, const U256& b) const;
  U256 mul(const U256& a, const U256& b) const;  // Montgomery product
  U256 sqr(const U256& a) const { return mul(a, a); }
  U256 exp(const U256& base_mont, const U256& e) const;
  U256 inv(const U256& a_mont) const;  // via Fermat (modulus must be prime)
  U256 one_mont() const { return one_; }

  /// Reduce an arbitrary 256-bit value into [0, n) (at most one subtraction —
  /// callers guarantee a < 2n).
  U256 reduce_once(const U256& a) const;

 private:
  U256 n_;
  std::uint64_t n0inv_;
  U256 r2_;
  U256 one_;
};

/// Width-5 non-adjacent form of a 256-bit scalar, least significant digit
/// first: k = sum(d[i] * 2^i), every non-zero digit odd with |d| < 16, and
/// each non-zero digit followed by at least four zero digits. 257 digits
/// cover any 256-bit k (a negative digit can carry one bit past the top).
/// Variable-time: public scalars only.
using Wnaf5 = std::array<std::int8_t, 257>;
Wnaf5 wnaf5(const U256& k);

/// Affine point; infinity encoded by `infinity == true`.
struct AffinePoint {
  U256 x, y;
  bool infinity = false;
};

/// Constant-time window-table selection: returns table[idx - 1] for idx in
/// [1, table.size()], or a zero point for idx == 0. Every entry is scanned and
/// mask-combined regardless of idx, so neither the branch predictor nor the
/// data cache observes which entry was chosen. This is the primitive all
/// secret-scalar window lookups go through; test_consttime pits it against a
/// deliberately variable-time early-exit lookup as the positive control.
AffinePoint ct_select_window(std::span<const AffinePoint> table, std::uint32_t idx);

class P256 {
 public:
  static const P256& instance();

  const Mont& field() const { return fp_; }
  const Mont& scalar_field() const { return fn_; }
  const U256& order() const { return n_; }

  /// Scalar multiplication k*G.
  AffinePoint mul_base(const U256& k) const;
  /// Scalar multiplication k*P.
  AffinePoint mul(const U256& k, const AffinePoint& p) const;
  /// u1*G + u2*Q (u1, u2 and Q public: variable time).
  AffinePoint mul_add(const U256& u1, const U256& u2, const AffinePoint& q) const;
  /// ECDSA's final check: is u1*G + u2*Q finite with affine x mod n == r?
  /// Same ladder as `mul_add`, without the inversion. `r` must be in [0, n).
  bool mul_add_x_equals(const U256& u1, const U256& u2, const AffinePoint& q,
                        const U256& r) const;

  /// a^-1 mod p for a Montgomery-domain `a_mont` (0 maps to 0), by the fixed
  /// addition chain described at the top of this file.
  U256 inv_p(const U256& a_mont) const;

  // Reference (double-and-add ladder) implementations: the differential-test
  // oracle and the bench baseline. Always compiled; `mul_base` etc. dispatch
  // here when MBTLS_REFERENCE_CRYPTO is defined.
  AffinePoint mul_base_reference(const U256& k) const;
  AffinePoint mul_reference(const U256& k, const AffinePoint& p) const;
  AffinePoint mul_add_reference(const U256& u1, const U256& u2, const AffinePoint& q) const;

  /// Is `p` a valid point on the curve (and not infinity)?
  bool on_curve(const AffinePoint& p) const;

  /// SEC1 uncompressed encoding: 0x04 || X || Y (65 bytes).
  Bytes encode_point(const AffinePoint& p) const;
  std::optional<AffinePoint> decode_point(ByteView data) const;

  /// Random scalar in [1, n-1].
  U256 random_scalar(crypto::Drbg& rng) const;

  const AffinePoint& generator() const { return g_; }

 private:
  P256();

  struct Jacobian {
    U256 x, y, z;  // Montgomery domain; infinity iff z == 0
  };

  /// Montgomery-domain affine point (z == 1 implied); the window-table entry
  /// format. Mixed addition against these saves ~4 field muls per add.
  struct AffineMont {
    U256 x, y;
  };

  static constexpr int kWindowBits = 4;
  static constexpr int kWindows = 256 / kWindowBits;       // 64
  static constexpr int kTableSize = (1 << kWindowBits) - 1;  // 15 (idx 0 = skip)
  static constexpr int kOddMultiples = 8;                    // 1Q, 3Q, ..., 15Q

  Jacobian to_jacobian(const AffinePoint& p) const;
  AffinePoint to_affine(const Jacobian& p) const;
  Jacobian dbl(const Jacobian& p) const;
  Jacobian add(const Jacobian& p, const Jacobian& q) const;
  Jacobian add_mixed(const Jacobian& p, const AffineMont& q) const;
  Jacobian add_mixed_ct(const Jacobian& p, const AffineMont& q, std::uint64_t valid_mask) const;
  Jacobian mul_impl(const U256& k, const Jacobian& p) const;
  Jacobian mul_add_ladder(const U256& u1, const U256& u2, const AffinePoint& q) const;
  void build_window_table(const AffinePoint& p, AffineMont out[kTableSize]) const;
  void build_odd_table(const AffinePoint& p, AffineMont out[kOddMultiples]) const;
  void batch_to_affine_mont(const Jacobian* in, AffineMont* out, std::size_t count) const;

  Mont fp_;
  Mont fn_;
  U256 n_;
  U256 b_mont_;        // curve b in Montgomery form
  AffinePoint g_;
  // Comb table of generator multiples: base_table_[i][j-1] = j * 16^i * G for
  // i in [0,64), j in [1,16). Public curve constants only (derived from G), so
  // no wiping is required; secret scalars never enter the precomputation.
  std::array<std::array<AffineMont, kTableSize>, kWindows> base_table_;  // lint: not-secret
};

}  // namespace mbtls::ec

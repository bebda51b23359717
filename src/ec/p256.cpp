#include "ec/p256.h"

#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/ct.h"

namespace mbtls::ec {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

U256 U256::from_bytes(ByteView be32) {
  if (be32.size() != 32) throw std::invalid_argument("U256::from_bytes wants 32 bytes");
  U256 r;
  for (int limb = 0; limb < 4; ++limb)
    r.w[static_cast<std::size_t>(limb)] =
        load_be64(be32.data() + static_cast<std::size_t>((3 - limb) * 8));
  return r;
}

Bytes U256::to_bytes() const {
  Bytes out(32);
  for (int limb = 0; limb < 4; ++limb)
    store_be64(out.data() + static_cast<std::size_t>((3 - limb) * 8),
               w[static_cast<std::size_t>(limb)]);
  return out;
}

namespace {

// raw add: r = a + b, returns carry
inline u64 raw_add(U256& r, const U256& a, const U256& b) {
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 s = static_cast<u128>(a.w[i]) + b.w[i] + carry;
    r.w[i] = static_cast<u64>(s);
    carry = s >> 64;
  }
  return static_cast<u64>(carry);
}

// raw sub: r = a - b, returns borrow
inline u64 raw_sub(U256& r, const U256& a, const U256& b) {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(a.w[i]) - b.w[i] - borrow;
    r.w[i] = static_cast<u64>(d);
    borrow = (d >> 64) & 1;
  }
  return static_cast<u64>(borrow);
}

inline int raw_cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.w[i] != b.w[i]) return a.w[i] < b.w[i] ? -1 : 1;
  }
  return 0;
}

// ------------------------------------------------- constant-time primitives
//
// Thin U256 adapters over the shared branch-free mask arithmetic in
// util/ct.h. Every helper returns / consumes an all-ones (0xff..ff) or
// all-zeros 64-bit mask so the compiler emits plain ALU ops, never a
// conditional jump.

/// All-ones when a == b, all-zeros otherwise.
inline u64 ct_eq_mask(u64 a, u64 b) { return ct::eq_mask(a, b); }

/// All-ones when the 256-bit value is zero.
inline u64 ct_u256_is_zero_mask(const U256& a) { return ct::all_zero_mask(a.w.data(), 4); }

/// r = mask ? a : r (mask must be all-ones or all-zeros).
inline void ct_cmov(U256& r, const U256& a, u64 mask) { ct::cmov(r.w.data(), a.w.data(), 4, mask); }

/// Window i (bits [4i, 4i+4)) of a scalar.
inline std::uint32_t window4(const U256& k, int i) {
  return static_cast<std::uint32_t>((k.w[static_cast<std::size_t>(i / 16)] >>
                                     (4 * (i % 16))) &
                                    0xf);
}

}  // namespace

Wnaf5 wnaf5(const U256& k) {
  Wnaf5 digits{};
  // Five limbs: adding back a negative digit can carry past bit 255.
  u64 v[5] = {k.w[0], k.w[1], k.w[2], k.w[3], 0};
  for (auto& digit : digits) {
    if (v[0] & 1) {
      int d = static_cast<int>(v[0] & 31);
      if (d >= 16) d -= 32;
      digit = static_cast<std::int8_t>(d);
      if (d > 0) {
        v[0] -= static_cast<u64>(d);  // the low five bits were exactly d
      } else {
        u64 carry = static_cast<u64>(-d);
        for (u64& limb : v) {
          limb += carry;
          if (limb >= carry) break;
          carry = 1;
        }
      }
      // v is now a multiple of 32: the next four digits are zero.
    }
    for (int j = 0; j < 4; ++j) v[j] = (v[j] >> 1) | (v[j + 1] << 63);
    v[4] >>= 1;
  }
  return digits;
}

Mont::Mont(const U256& modulus) : n_(modulus) {
  if ((n_.w[0] & 1) == 0) throw std::invalid_argument("Mont: modulus must be odd");
  u64 inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - n_.w[0] * inv;
  n0inv_ = ~inv + 1;

  // r2_ = 2^512 mod n, computed by repeated doubling of (2^256 mod n).
  // Start with r = 2^256 mod n: since n has the top bit set in practice
  // (both the P-256 prime and order do), 2^256 mod n can be found by
  // repeated conditional subtraction from a value built via doubling 1,
  // 256 times, reducing as we go.
  U256 r{};  // running value
  r.w[0] = 1;
  for (int i = 0; i < 512; ++i) {
    // r = 2r mod n
    U256 doubled;
    const u64 carry = raw_add(doubled, r, r);
    if (carry || raw_cmp(doubled, n_) >= 0) {
      U256 reduced;
      raw_sub(reduced, doubled, n_);
      r = reduced;
    } else {
      r = doubled;
    }
  }
  r2_ = r;

  U256 one{};
  one.w[0] = 1;
  one_ = mul(one, r2_);
}

U256 Mont::add(const U256& a, const U256& b) const {
  U256 r;
  const u64 carry = raw_add(r, a, b);
  if (carry || raw_cmp(r, n_) >= 0) {
    U256 s;
    raw_sub(s, r, n_);
    return s;
  }
  return r;
}

U256 Mont::sub(const U256& a, const U256& b) const {
  U256 r;
  const u64 borrow = raw_sub(r, a, b);
  if (borrow) {
    U256 s;
    raw_add(s, r, n_);
    return s;
  }
  return r;
}

U256 Mont::mul(const U256& a, const U256& b) const {
  // CIOS Montgomery multiplication, fixed 4 limbs.
  u64 t[6] = {0};
  for (int i = 0; i < 4; ++i) {
    // t += a[i] * b
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 cur = static_cast<u128>(a.w[i]) * b.w[j] + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[4]) + carry;
    t[4] = static_cast<u64>(cur);
    t[5] = static_cast<u64>(cur >> 64);

    const u64 m = t[0] * n0inv_;
    // t += m * n; t >>= 64
    u128 c0 = static_cast<u128>(m) * n_.w[0] + t[0];
    carry = static_cast<u64>(c0 >> 64);
    for (int j = 1; j < 4; ++j) {
      const u128 cur2 = static_cast<u128>(m) * n_.w[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(cur2);
      carry = static_cast<u64>(cur2 >> 64);
    }
    cur = static_cast<u128>(t[4]) + carry;
    t[3] = static_cast<u64>(cur);
    t[4] = t[5] + static_cast<u64>(cur >> 64);
    t[5] = 0;
  }
  U256 r{{t[0], t[1], t[2], t[3]}};
  if (t[4] != 0 || raw_cmp(r, n_) >= 0) {
    U256 s;
    raw_sub(s, r, n_);
    return s;
  }
  return r;
}

U256 Mont::from_mont(const U256& a) const {
  U256 one{};
  one.w[0] = 1;
  return mul(a, one);
}

U256 Mont::exp(const U256& base_mont, const U256& e) const {
  U256 acc = one_;
  bool started = false;
  for (int i = 255; i >= 0; --i) {
    if (started) acc = sqr(acc);
    if (e.bit(static_cast<std::size_t>(i))) {
      acc = started ? mul(acc, base_mont) : base_mont;
      started = true;
    }
  }
  return started ? acc : one_;
}

U256 Mont::inv(const U256& a_mont) const {
  // Fermat: a^(n-2) mod n.
  U256 e = n_;
  U256 two{};
  two.w[0] = 2;
  U256 nm2;
  raw_sub(nm2, e, two);
  return exp(a_mont, nm2);
}

U256 Mont::reduce_once(const U256& a) const {
  if (raw_cmp(a, n_) >= 0) {
    U256 r;
    raw_sub(r, a, n_);
    return r;
  }
  return a;
}

// ---------------------------------------------------- ct window selection

AffinePoint ct_select_window(std::span<const AffinePoint> table, std::uint32_t idx) {
  AffinePoint out;
  u64 matched = 0;
  for (std::size_t j = 0; j < table.size(); ++j) {
    const u64 m = ct_eq_mask(idx, static_cast<u64>(j + 1));
    ct_cmov(out.x, table[j].x, m);
    ct_cmov(out.y, table[j].y, m);
    matched |= m;
  }
  out.infinity = matched == 0;
  return out;
}

// ------------------------------------------------------------------ curve

namespace {
U256 from_hex64(const char* hex) {
  // 64 hex chars -> U256
  Bytes b(32);
  auto nib = [](char c) -> u64 {
    if (c >= '0' && c <= '9') return static_cast<u64>(c - '0');
    if (c >= 'a' && c <= 'f') return static_cast<u64>(c - 'a' + 10);
    return static_cast<u64>(c - 'A' + 10);
  };
  for (int i = 0; i < 32; ++i)
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>((nib(hex[2 * i]) << 4) | nib(hex[2 * i + 1]));
  return U256::from_bytes(b);
}
}  // namespace

const P256& P256::instance() {
  static const P256 curve;
  return curve;
}

P256::P256()
    : fp_(from_hex64("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff")),
      fn_(from_hex64("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")),
      n_(from_hex64("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551")) {
  const U256 b = from_hex64("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
  const U256 gx = from_hex64("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
  const U256 gy = from_hex64("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
  b_mont_ = fp_.to_mont(b);
  g_.x = gx;
  g_.y = gy;

  // Precompute the fixed-base comb table: row i holds {1..15} * 16^i * G.
  // With it, mul_base needs zero doublings — one mixed addition per window.
  // All entries derive from the public generator; one-time cost at first
  // P256::instance() is ~1.2k Jacobian ops plus a single batched inversion.
  std::vector<Jacobian> rows(static_cast<std::size_t>(kWindows) * kTableSize);
  Jacobian cur = to_jacobian(g_);
  for (int i = 0; i < kWindows; ++i) {
    Jacobian* row = rows.data() + static_cast<std::size_t>(i) * kTableSize;
    row[0] = cur;
    for (int j = 1; j < kTableSize; ++j) row[j] = add(row[j - 1], cur);
    if (i + 1 < kWindows) {
      for (int d = 0; d < kWindowBits; ++d) cur = dbl(cur);
    }
  }
  std::vector<AffineMont> flat(rows.size());
  batch_to_affine_mont(rows.data(), flat.data(), rows.size());
  for (int i = 0; i < kWindows; ++i)
    for (int j = 0; j < kTableSize; ++j)
      base_table_[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] =
          flat[static_cast<std::size_t>(i) * kTableSize + static_cast<std::size_t>(j)];
}

P256::Jacobian P256::to_jacobian(const AffinePoint& p) const {
  if (p.infinity) return Jacobian{};  // z == 0
  return Jacobian{fp_.to_mont(p.x), fp_.to_mont(p.y), fp_.one_mont()};
}

AffinePoint P256::to_affine(const Jacobian& p) const {
  AffinePoint r;
  if (p.z.is_zero()) {
    r.infinity = true;
    return r;
  }
  const U256 zinv = inv_p(p.z);
  const U256 zinv2 = fp_.sqr(zinv);
  const U256 zinv3 = fp_.mul(zinv2, zinv);
  r.x = fp_.from_mont(fp_.mul(p.x, zinv2));
  r.y = fp_.from_mont(fp_.mul(p.y, zinv3));
  return r;
}

// Jacobian doubling for a = -3 (dbl-2001-b style, using
// M = 3(X-Z^2)(X+Z^2)). Branch-free: with Z = 0 the formulas yield Z3 = 0,
// so infinity stays infinity without a secret-dependent early exit (the
// windowed ladders double an accumulator that is infinity while the secret
// scalar's leading windows are zero).
P256::Jacobian P256::dbl(const Jacobian& p) const {
  const U256 z2 = fp_.sqr(p.z);
  const U256 t1 = fp_.sub(p.x, z2);
  const U256 t2 = fp_.add(p.x, z2);
  const U256 t1t2 = fp_.mul(t1, t2);
  const U256 m = fp_.add(fp_.add(t1t2, t1t2), t1t2);
  const U256 y2 = fp_.sqr(p.y);
  const U256 s = fp_.mul(fp_.add(fp_.add(p.x, p.x), fp_.add(p.x, p.x)), y2);  // 4*X*Y^2
  U256 x3 = fp_.sub(fp_.sqr(m), fp_.add(s, s));
  const U256 y4 = fp_.sqr(y2);
  const U256 eight_y4 =
      fp_.add(fp_.add(fp_.add(y4, y4), fp_.add(y4, y4)), fp_.add(fp_.add(y4, y4), fp_.add(y4, y4)));
  U256 y3 = fp_.sub(fp_.mul(m, fp_.sub(s, x3)), eight_y4);
  U256 z3 = fp_.mul(fp_.add(p.y, p.y), p.z);
  return Jacobian{x3, y3, z3};
}

// General Jacobian addition (add-2007-bl style simplifications omitted;
// straightforward formulas are fine at our scale). Used on public data only
// (reference ladder, table precomputation) — branches are acceptable here.
P256::Jacobian P256::add(const Jacobian& p, const Jacobian& q) const {
  if (p.z.is_zero()) return q;
  if (q.z.is_zero()) return p;
  const U256 z1z1 = fp_.sqr(p.z);
  const U256 z2z2 = fp_.sqr(q.z);
  const U256 u1 = fp_.mul(p.x, z2z2);
  const U256 u2 = fp_.mul(q.x, z1z1);
  const U256 s1 = fp_.mul(p.y, fp_.mul(z2z2, q.z));
  const U256 s2 = fp_.mul(q.y, fp_.mul(z1z1, p.z));
  if (u1 == u2) {
    if (s1 == s2) return dbl(p);
    return Jacobian{};  // P + (-P) = infinity
  }
  const U256 h = fp_.sub(u2, u1);
  const U256 r = fp_.sub(s2, s1);
  const U256 h2 = fp_.sqr(h);
  const U256 h3 = fp_.mul(h2, h);
  const U256 u1h2 = fp_.mul(u1, h2);
  U256 x3 = fp_.sub(fp_.sub(fp_.sqr(r), h3), fp_.add(u1h2, u1h2));
  U256 y3 = fp_.sub(fp_.mul(r, fp_.sub(u1h2, x3)), fp_.mul(s1, h3));
  U256 z3 = fp_.mul(h, fp_.mul(p.z, q.z));
  return Jacobian{x3, y3, z3};
}

// Mixed addition p + q with q affine (Z2 = 1): madd-2007-bl, ~3 field muls
// cheaper than the general add. Variable-time (public scalars only).
P256::Jacobian P256::add_mixed(const Jacobian& p, const AffineMont& q) const {
  if (p.z.is_zero()) return Jacobian{q.x, q.y, fp_.one_mont()};
  const U256 z1z1 = fp_.sqr(p.z);
  const U256 u2 = fp_.mul(q.x, z1z1);
  const U256 s2 = fp_.mul(q.y, fp_.mul(z1z1, p.z));
  const U256 h = fp_.sub(u2, p.x);
  const U256 r = fp_.sub(s2, p.y);
  if (h.is_zero()) {
    if (r.is_zero()) return dbl(p);
    return Jacobian{};  // p + (-p)
  }
  const U256 h2 = fp_.sqr(h);
  const U256 h3 = fp_.mul(h2, h);
  const U256 v = fp_.mul(p.x, h2);
  U256 x3 = fp_.sub(fp_.sub(fp_.sqr(r), h3), fp_.add(v, v));
  U256 y3 = fp_.sub(fp_.mul(r, fp_.sub(v, x3)), fp_.mul(p.y, h3));
  U256 z3 = fp_.mul(p.z, h);
  return Jacobian{x3, y3, z3};
}

// Constant-time mixed addition for secret-scalar ladders. The general-case
// formulas run unconditionally; the two degenerate cases (accumulator at
// infinity, window digit 0) are resolved afterwards with masked moves, so
// control flow never depends on the secret window value.
//
// The p == ±q cases cannot arise when the scalar is in [0, n): the
// accumulator always holds (prefix of k) * P with the prefix strictly
// smaller than the table entry's multiple, so their multiples of P can only
// collide mod n for k >= n. A plain branch guards that unreachable case to
// keep out-of-range inputs well-defined (the differential tests exercise it).
P256::Jacobian P256::add_mixed_ct(const Jacobian& p, const AffineMont& q,
                                  std::uint64_t valid_mask) const {
  const U256 z1z1 = fp_.sqr(p.z);
  const U256 u2 = fp_.mul(q.x, z1z1);
  const U256 s2 = fp_.mul(q.y, fp_.mul(z1z1, p.z));
  const U256 h = fp_.sub(u2, p.x);
  const U256 r = fp_.sub(s2, p.y);
  const U256 h2 = fp_.sqr(h);
  const U256 h3 = fp_.mul(h2, h);
  const U256 v = fp_.mul(p.x, h2);
  Jacobian out;
  out.x = fp_.sub(fp_.sub(fp_.sqr(r), h3), fp_.add(v, v));
  out.y = fp_.sub(fp_.mul(r, fp_.sub(v, out.x)), fp_.mul(p.y, h3));
  out.z = fp_.mul(p.z, h);

  const u64 p_inf = ct_u256_is_zero_mask(p.z);
  // p at infinity: the sum is q lifted to Jacobian.
  const Jacobian lifted{q.x, q.y, fp_.one_mont()};
  ct_cmov(out.x, lifted.x, p_inf & valid_mask);
  ct_cmov(out.y, lifted.y, p_inf & valid_mask);
  ct_cmov(out.z, lifted.z, p_inf & valid_mask);
  // q absent (window digit 0): keep p.
  ct_cmov(out.x, p.x, ~valid_mask);
  ct_cmov(out.y, p.y, ~valid_mask);
  ct_cmov(out.z, p.z, ~valid_mask);

  if ((ct_u256_is_zero_mask(h) & ct_u256_is_zero_mask(r) & ~p_inf & valid_mask) != 0) {
    return dbl(p);  // unreachable for scalars < n; see comment above
  }
  return out;
}

namespace {
/// Constant-time scan over a window table of Montgomery-affine entries.
/// Returns the all-ones mask when idx selected a real entry (idx in [1, n]).
template <typename Entry>
u64 ct_select_entry(const Entry* table, int n, std::uint32_t idx, Entry& out) {
  u64 matched = 0;
  for (int j = 0; j < n; ++j) {
    const u64 m = ct_eq_mask(idx, static_cast<u64>(j + 1));
    ct_cmov(out.x, table[j].x, m);
    ct_cmov(out.y, table[j].y, m);
    matched |= m;
  }
  return matched;
}
}  // namespace

void P256::batch_to_affine_mont(const Jacobian* in, AffineMont* out, std::size_t count) const {
  // Montgomery's trick: one field inversion for the whole batch. Callers
  // guarantee no input is at infinity (window tables never contain it).
  std::vector<U256> prefix(count);
  U256 acc = fp_.one_mont();
  for (std::size_t i = 0; i < count; ++i) {
    acc = fp_.mul(acc, in[i].z);
    prefix[i] = acc;
  }
  U256 inv_tail = inv_p(acc);  // (z0*...*z_{n-1})^-1
  for (std::size_t i = count; i-- > 0;) {
    const U256 zinv = i == 0 ? inv_tail : fp_.mul(inv_tail, prefix[i - 1]);
    inv_tail = fp_.mul(inv_tail, in[i].z);
    const U256 zinv2 = fp_.sqr(zinv);
    out[i].x = fp_.mul(in[i].x, zinv2);
    out[i].y = fp_.mul(in[i].y, fp_.mul(zinv2, zinv));
  }
}

void P256::build_window_table(const AffinePoint& p, AffineMont out[kTableSize]) const {
  Jacobian jt[kTableSize];
  jt[0] = to_jacobian(p);
  for (int j = 1; j < kTableSize; ++j) jt[j] = add(jt[j - 1], jt[0]);
  batch_to_affine_mont(jt, out, kTableSize);
}

void P256::build_odd_table(const AffinePoint& p, AffineMont out[kOddMultiples]) const {
  Jacobian jt[kOddMultiples];
  jt[0] = to_jacobian(p);
  const Jacobian twice = dbl(jt[0]);
  for (int j = 1; j < kOddMultiples; ++j) jt[j] = add(jt[j - 1], twice);
  batch_to_affine_mont(jt, out, kOddMultiples);
}

U256 P256::inv_p(const U256& a_mont) const {
  // a^(p-2) along the chain below; x_k denotes a^(2^k - 1).
  const auto sqr_n = [this](U256 v, int n) {
    for (int i = 0; i < n; ++i) v = fp_.sqr(v);
    return v;
  };
  const U256& a = a_mont;
  const U256 x2 = fp_.mul(fp_.sqr(a), a);
  const U256 x3 = fp_.mul(fp_.sqr(x2), a);
  const U256 x6 = fp_.mul(sqr_n(x3, 3), x3);
  const U256 x12 = fp_.mul(sqr_n(x6, 6), x6);
  const U256 x15 = fp_.mul(sqr_n(x12, 3), x3);
  const U256 x16 = fp_.mul(fp_.sqr(x15), a);
  const U256 x32 = fp_.mul(sqr_n(x16, 16), x16);
  const U256 x32_shl15 = sqr_n(x32, 15);
  const U256 x47 = fp_.mul(x32_shl15, x15);
  // p - 2 = ((((2^32-1)*2^32 + 1)*2^143 + x47)*2^47 + x47)*2^2 + 1, with the
  // x47 terms standing for 2^47 - 1:
  //   ffffffff 00000001 00000000 00000000 00000000 ffffffff ffffffff fffffffd
  U256 t = fp_.mul(sqr_n(x32_shl15, 17), a);  // exponent ffffffff00000001
  t = fp_.mul(sqr_n(t, 143), x47);
  t = fp_.mul(sqr_n(t, 47), x47);
  return fp_.mul(sqr_n(t, 2), a);
}

P256::Jacobian P256::mul_impl(const U256& k, const Jacobian& p) const {
  Jacobian acc{};  // infinity
  for (int i = 255; i >= 0; --i) {
    acc = dbl(acc);
    if (k.bit(static_cast<std::size_t>(i))) acc = add(acc, p);
  }
  return acc;
}

AffinePoint P256::mul_base_reference(const U256& k) const { return mul_reference(k, g_); }

AffinePoint P256::mul_reference(const U256& k, const AffinePoint& p) const {
  return to_affine(mul_impl(k, to_jacobian(p)));
}

AffinePoint P256::mul_add_reference(const U256& u1, const U256& u2, const AffinePoint& q) const {
  const Jacobian a = mul_impl(u1, to_jacobian(g_));
  const Jacobian b = mul_impl(u2, to_jacobian(q));
  return to_affine(add(a, b));
}

AffinePoint P256::mul_base(const U256& k) const {
#ifdef MBTLS_REFERENCE_CRYPTO
  return mul_base_reference(k);
#else
  // Fixed-base comb: one constant-time-selected mixed addition per 4-bit
  // window, no doublings at all (the table rows absorb the 16^i factors).
  Jacobian acc{};  // infinity
  for (int i = 0; i < kWindows; ++i) {
    const std::uint32_t d = window4(k, i);
    AffineMont sel{};
    const u64 valid =
        ct_select_entry(base_table_[static_cast<std::size_t>(i)].data(), kTableSize, d, sel);
    acc = add_mixed_ct(acc, sel, valid);
  }
  return to_affine(acc);
#endif
}

AffinePoint P256::mul(const U256& k, const AffinePoint& p) const {
#ifdef MBTLS_REFERENCE_CRYPTO
  return mul_reference(k, p);
#else
  // Fixed-window (w=4) left-to-right ladder: 4 doublings + one
  // constant-time-selected mixed addition per window. The per-call table is
  // derived from the (public) input point; only the selection index is
  // secret, and it never steers a branch or a memory address.
  AffineMont table[kTableSize];
  build_window_table(p, table);
  Jacobian acc{};  // infinity
  for (int i = kWindows - 1; i >= 0; --i) {
    if (i != kWindows - 1) {
      for (int d = 0; d < kWindowBits; ++d) acc = dbl(acc);
    }
    const std::uint32_t d = window4(k, i);
    AffineMont sel{};
    const u64 valid = ct_select_entry(table, kTableSize, d, sel);
    acc = add_mixed_ct(acc, sel, valid);
  }
  return to_affine(acc);
#endif
}

P256::Jacobian P256::mul_add_ladder(const U256& u1, const U256& u2,
                                    const AffinePoint& q) const {
  // Strauss-Shamir over width-5 wNAF digits: one shared chain of doublings,
  // on average one mixed addition per six bits of each scalar. The inputs
  // are public, so digits steer branches and index the tables directly.
  AffineMont table_q[kOddMultiples];
  if (!q.infinity) build_odd_table(q, table_q);
  const Wnaf5 d1 = wnaf5(u1);
  const Wnaf5 d2 = q.infinity ? Wnaf5{} : wnaf5(u2);
  const auto& row_g = base_table_[0];  // row 0 holds {1..15} * G
  const auto add_digit = [this](Jacobian& acc, int d, const AffineMont& odd_multiple) {
    acc = add_mixed(acc, d > 0 ? odd_multiple
                               : AffineMont{odd_multiple.x, fp_.sub(U256{}, odd_multiple.y)});
  };
  int top = static_cast<int>(d1.size()) - 1;
  while (top >= 0 && d1[static_cast<std::size_t>(top)] == 0 &&
         d2[static_cast<std::size_t>(top)] == 0)
    --top;
  Jacobian acc{};  // infinity
  for (int i = top; i >= 0; --i) {
    if (i != top) acc = dbl(acc);
    const int dg = d1[static_cast<std::size_t>(i)];
    const int dq = d2[static_cast<std::size_t>(i)];
    if (dg != 0) add_digit(acc, dg, row_g[static_cast<std::size_t>(std::abs(dg) - 1)]);
    if (dq != 0) add_digit(acc, dq, table_q[(std::abs(dq) - 1) / 2]);
  }
  return acc;
}

AffinePoint P256::mul_add(const U256& u1, const U256& u2, const AffinePoint& q) const {
#ifdef MBTLS_REFERENCE_CRYPTO
  return mul_add_reference(u1, u2, q);
#else
  return to_affine(mul_add_ladder(u1, u2, q));
#endif
}

bool P256::mul_add_x_equals(const U256& u1, const U256& u2, const AffinePoint& q,
                            const U256& r) const {
#ifdef MBTLS_REFERENCE_CRYPTO
  const AffinePoint sum = mul_add_reference(u1, u2, q);
  return !sum.infinity && fn_.reduce_once(sum.x) == r;
#else
  // x = X/Z^2 lies in [0, p) and p < 2n, so x mod n == r means x == r or
  // x == r + n, the latter only possible when r + n < p.
  const Jacobian sum = mul_add_ladder(u1, u2, q);
  if (sum.z.is_zero()) return false;
  const U256 z2 = fp_.sqr(sum.z);
  if (fp_.mul(fp_.to_mont(r), z2) == sum.x) return true;
  U256 r_plus_n;
  if (raw_add(r_plus_n, r, n_) != 0 || raw_cmp(r_plus_n, fp_.modulus()) >= 0) return false;
  return fp_.mul(fp_.to_mont(r_plus_n), z2) == sum.x;
#endif
}

bool P256::on_curve(const AffinePoint& p) const {
  if (p.infinity) return false;
  // y^2 == x^3 - 3x + b (in the Montgomery domain).
  const U256 x = fp_.to_mont(p.x);
  const U256 y = fp_.to_mont(p.y);
  const U256 y2 = fp_.sqr(y);
  const U256 x3 = fp_.mul(fp_.sqr(x), x);
  const U256 three_x = fp_.add(fp_.add(x, x), x);
  const U256 rhs = fp_.add(fp_.sub(x3, three_x), b_mont_);
  return y2 == rhs;
}

Bytes P256::encode_point(const AffinePoint& p) const {
  if (p.infinity) throw std::invalid_argument("cannot encode point at infinity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  append(out, p.x.to_bytes());
  append(out, p.y.to_bytes());
  return out;
}

std::optional<AffinePoint> P256::decode_point(ByteView data) const {
  if (data.size() != 65 || data[0] != 0x04) return std::nullopt;
  AffinePoint p;
  p.x = U256::from_bytes(data.subspan(1, 32));
  p.y = U256::from_bytes(data.subspan(33, 32));
  if (raw_cmp(p.x, fp_.modulus()) >= 0 || raw_cmp(p.y, fp_.modulus()) >= 0) return std::nullopt;
  if (!on_curve(p)) return std::nullopt;
  return p;
}

U256 P256::random_scalar(crypto::Drbg& rng) const {
  for (;;) {
    const Bytes b = rng.bytes(32);
    const U256 k = U256::from_bytes(b);
    if (!k.is_zero() && raw_cmp(k, n_) < 0) return k;
  }
}

}  // namespace mbtls::ec

#ifndef PPDBSCAN_BIGINT_BIGINT_H_
#define PPDBSCAN_BIGINT_BIGINT_H_

#include <compare>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bigint/limb.h"
#include "common/random.h"
#include "common/status.h"

namespace ppdbscan {

/// Arbitrary-precision signed integer.
///
/// Representation: sign/magnitude, with the magnitude stored as a normalized
/// little-endian vector of limbs (no trailing zero limbs; zero is the empty
/// vector with sign 0). The limb width is selected at compile time
/// (bigint/limb.h): 64-bit limbs with `unsigned __int128` products by
/// default, 32-bit limbs as fallback. The serialized byte format is
/// limb-width independent. All arithmetic is exact; operations never
/// throw — domain errors (e.g. division by zero) abort via PPD_CHECK, and
/// parsing returns Result.
///
/// The class is the foundation for the Paillier and RSA cryptosystems in
/// src/crypto and is differentially tested against GMP in the test suite.
class BigInt {
 public:
  /// Zero.
  BigInt() = default;
  /// Conversion from a native signed integer.
  BigInt(int64_t value);  // NOLINT(runtime/explicit): intended implicit.

  BigInt(const BigInt&) = default;
  BigInt& operator=(const BigInt&) = default;
  BigInt(BigInt&&) = default;
  BigInt& operator=(BigInt&&) = default;

  /// Constructs from an unsigned 64-bit value.
  static BigInt FromU64(uint64_t value);
  /// Parses a base-10 string with optional leading '-'.
  static Result<BigInt> FromDecimal(std::string_view text);
  /// Parses a base-16 string with optional leading '-' (no 0x prefix).
  static Result<BigInt> FromHex(std::string_view text);
  /// Constructs a non-negative value from big-endian magnitude bytes.
  static BigInt FromBytes(const std::vector<uint8_t>& bytes);

  /// Big-endian magnitude bytes (no sign); empty for zero.
  std::vector<uint8_t> ToBytes() const;
  /// Base-10 representation with leading '-' when negative.
  std::string ToDecimal() const;
  /// Lowercase base-16 representation with leading '-' when negative.
  std::string ToHex() const;

  /// -1, 0 or +1.
  int sign() const { return sign_; }
  bool IsZero() const { return sign_ == 0; }
  bool IsNegative() const { return sign_ < 0; }
  bool IsOdd() const { return sign_ != 0 && (limbs_[0] & 1u); }
  bool IsEven() const { return !IsOdd(); }

  /// Number of significant bits of the magnitude; 0 for zero.
  size_t BitLength() const;
  /// Bit `i` (little-endian) of the magnitude.
  bool TestBit(size_t i) const;

  /// True iff the magnitude fits in a uint64_t.
  bool FitsU64() const;
  /// Magnitude as uint64_t; PPD_CHECKs FitsU64(). Sign is ignored.
  uint64_t MagnitudeU64() const;
  /// Value as int64_t; PPD_CHECKs that the signed value fits.
  int64_t ToI64() const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& rhs) const;
  BigInt operator-(const BigInt& rhs) const;
  BigInt operator*(const BigInt& rhs) const;
  /// Truncated division (C++ semantics: quotient rounds toward zero).
  /// PPD_CHECKs rhs != 0.
  BigInt operator/(const BigInt& rhs) const;
  /// Truncated remainder: (a/b)*b + a%b == a. Sign follows the dividend.
  BigInt operator%(const BigInt& rhs) const;

  BigInt& operator+=(const BigInt& rhs);
  BigInt& operator-=(const BigInt& rhs);
  BigInt& operator*=(const BigInt& rhs);

  /// Computes quotient and remainder in one pass (truncated semantics).
  /// Either output may be null.
  void DivMod(const BigInt& divisor, BigInt* quotient, BigInt* remainder) const;

  /// Euclidean residue: result in [0, |modulus|). PPD_CHECKs modulus != 0.
  BigInt Mod(const BigInt& modulus) const;

  BigInt operator<<(size_t bits) const;
  BigInt operator>>(size_t bits) const;

  std::strong_ordering operator<=>(const BigInt& rhs) const;
  bool operator==(const BigInt& rhs) const;

  /// (base^exponent) mod modulus for exponent >= 0, modulus > 0. Uses
  /// Montgomery exponentiation when the modulus is odd.
  static BigInt ModExp(const BigInt& base, const BigInt& exponent,
                       const BigInt& modulus);

  /// Greatest common divisor of |a| and |b| (non-negative).
  static BigInt Gcd(const BigInt& a, const BigInt& b);
  /// Least common multiple of |a| and |b| (non-negative).
  static BigInt Lcm(const BigInt& a, const BigInt& b);

  /// Multiplicative inverse of a modulo m (m > 1): returns x in [1, m) with
  /// a*x = 1 (mod m), or kInvalidArgument when gcd(a, m) != 1.
  static Result<BigInt> ModInverse(const BigInt& a, const BigInt& m);

  /// Uniform value in [0, 2^bits).
  static BigInt RandomBits(SecureRng& rng, size_t bits);
  /// Uniform value in [0, bound) for bound > 0 (rejection sampling).
  static BigInt RandomBelow(SecureRng& rng, const BigInt& bound);

  // Internal limb access for the Montgomery machinery (src/bigint only).
  const std::vector<Limb>& limbs() const { return limbs_; }
  static BigInt FromLimbs(std::vector<Limb> limbs, int sign);

 private:
  void Normalize();

  int sign_ = 0;              // -1, 0, +1
  std::vector<Limb> limbs_;   // little-endian magnitude
};

std::ostream& operator<<(std::ostream& os, const BigInt& v);

}  // namespace ppdbscan

#endif  // PPDBSCAN_BIGINT_BIGINT_H_

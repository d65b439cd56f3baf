#include "crypto/sha256.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define IPFS_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace ipfs::crypto {
namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

// The portable FIPS 180-4 compression function, one block at a time.
void compress_block(std::uint32_t* state, const std::uint8_t* block) {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^
                             (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^
                             (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3],
                e = state[4], f = state[5], g = state[6], h = state[7];
  for (int i = 0; i < 64; ++i) {
    const std::uint32_t s1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t t1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

#ifdef IPFS_SHA256_X86
// SHA-NI kernel. The round state lives in two registers as (A,B,E,F) and
// (C,D,G,H), the layout _mm_sha256rnds2_epu32 wants; each rnds2 runs two
// rounds, and msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bULL, 0x0405060700010203ULL);
  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i cdgh = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);    // C D A B
  cdgh = _mm_shuffle_epi32(cdgh, 0x1B);  // E F G H
  __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
  cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];  // schedule words 4g..4g+3 of the last four groups
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      __m128i m;
      if (g < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * g)),
            byte_swap);
      } else {
        m = _mm_sha256msg1_epu32(w[g & 3], w[(g + 1) & 3]);
        m = _mm_add_epi32(m, _mm_alignr_epi8(w[(g + 3) & 3], w[(g + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w[(g + 3) & 3]);
      }
      w[g & 3] = m;
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(
                 kRoundConstants.data() + 4 * g)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  tmp = _mm_shuffle_epi32(abef, 0x1B);   // F E B A
  cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // D C H G
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(tmp, cdgh, 0xF0));  // D C B A
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(cdgh, tmp, 8));  // H G F E
}

bool cpu_has_sha_ni() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  if (!(ecx & bit_SSSE3) || !(ecx & bit_SSE4_1)) return false;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  return (ebx & bit_SHA) != 0;
}
#endif

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* data,
                       std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) compress_block(state, data);
}

CompressFn compress_hardware() {
#ifdef IPFS_SHA256_X86
  static const CompressFn kernel = cpu_has_sha_ni() ? compress_sha_ni : nullptr;
  return kernel;
#else
  return nullptr;
#endif
}

CompressFn compress_selected() {
  static const CompressFn kernel =
      compress_hardware() ? compress_hardware() : compress_portable;
  return kernel;
}

}  // namespace detail

Sha256::Sha256() { reset(); }

void Sha256::reset() {
  state_ = kInitialState;
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
  if (data.empty()) return;  // data() may be null; memcpy forbids that
  const detail::CompressFn compress = detail::compress_selected();
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take = std::min(data.size(), buffer_.size() - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset += take;
    if (buffered_ == buffer_.size()) {
      compress(state_.data(), buffer_.data(), 1);
      buffered_ = 0;
    }
  }
  // Every whole block left in the input goes to the kernel in one call.
  const std::size_t blocks = (data.size() - offset) / 64;
  if (blocks > 0) {
    compress(state_.data(), data.data() + offset, blocks);
    offset += blocks * 64;
  }
  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

void Sha256::update(std::string_view data) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Sha256Digest Sha256::finish() {
  // Padding: 0x80, zeros up to byte 56 of a block, then the 64-bit
  // big-endian bit length -- one block, or two when the tail is past 55.
  const detail::CompressFn compress = detail::compress_selected();
  const std::uint64_t bit_length = total_bytes_ * 8;
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, buffer_.size() - buffered_);
    compress(state_.data(), buffer_.data(), 1);
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  for (int i = 0; i < 8; ++i)
    buffer_[56 + i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  compress(state_.data(), buffer_.data(), 1);
  buffered_ = 0;

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Sha256Digest sha256(std::string_view data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kAlphabet[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out.push_back(kAlphabet[b >> 4]);
    out.push_back(kAlphabet[b & 0x0f]);
  }
  return out;
}

std::vector<std::uint8_t> from_hex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    throw std::invalid_argument("invalid hex digit");
  };
  if (hex.size() % 2 != 0) throw std::invalid_argument("odd hex length");
  std::vector<std::uint8_t> out(hex.size() / 2);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                       nibble(hex[2 * i + 1]));
  }
  return out;
}

}  // namespace ipfs::crypto

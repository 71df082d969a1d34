#include "relation/relation.h"

#include <algorithm>
#include <numeric>
#include <utility>

namespace tetris {

namespace {

// The packed-key canonicalizer shared by Relation::Canonicalize and
// CanonicalizeTuples. Rows of k fields that all fit `width` bits with
// k * width < 64 pack into one key whose numeric order is their
// lexicographic order (fixed-width fields, most significant first), so
// sorting and deduplicating the keys canonicalizes the rows — no
// comparator touches a row, and a key decodes back into its row.

// Bits needed by the widest of some values, given their bitwise OR.
int BitWidth(uint64_t all) {
  return all == 0 ? 0 : 64 - __builtin_clzll(all);
}

bool Packable(size_t k, int width) {
  return k * static_cast<size_t>(width) < 64;
}

uint64_t PackRow(const uint64_t* row, size_t k, int width) {
  uint64_t key = 0;
  for (size_t c = 0; c < k; ++c) key = key << width | row[c];
  return key;
}

// Inverse of PackRow. Packable keys have width <= 63, so the shifts
// below stay defined.
void UnpackRow(uint64_t key, size_t k, int width, uint64_t* row) {
  const uint64_t mask = (uint64_t{1} << width) - 1;
  for (size_t c = k; c-- > 0;) {
    row[c] = key & mask;
    key >>= width;
  }
}

// Sorts the non-empty `keys` ascending and drops duplicates. Keys span
// `bits` < 64 bits: an LSD radix sort over 8-bit digits, one pass per
// digit that actually varies (a 3-attribute m=48 grid output spans 18
// bits, so at most 3 passes).
void SortUniqueKeys(std::vector<uint64_t>* keys, int bits) {
  std::vector<uint64_t>& a = *keys;
  const size_t n = a.size();
  constexpr int kDigit = 8;
  constexpr size_t kBuckets = size_t{1} << kDigit;
  const int passes = (bits + kDigit - 1) / kDigit;
  std::vector<size_t> counts(static_cast<size_t>(passes) * kBuckets, 0);
  for (uint64_t key : a) {
    for (int p = 0; p < passes; ++p) {
      ++counts[p * kBuckets + ((key >> (p * kDigit)) & (kBuckets - 1))];
    }
  }
  std::vector<uint64_t> tmp(n);
  for (int p = 0; p < passes; ++p) {
    size_t* count = &counts[p * kBuckets];
    const int shift = p * kDigit;
    if (count[(a[0] >> shift) & (kBuckets - 1)] == n) continue;
    size_t pos = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const size_t c = count[b];
      count[b] = pos;
      pos += c;
    }
    for (uint64_t key : a) {
      tmp[count[(key >> shift) & (kBuckets - 1)]++] = key;
    }
    a.swap(tmp);
  }
  a.erase(std::unique(a.begin(), a.end()), a.end());
}

}  // namespace

void CanonicalizeTuples(std::vector<Tuple>* tuples) {
  std::vector<Tuple>& ts = *tuples;
  if (ts.size() < 2) return;
  // Equal arities whose fields pack into one key take the radix path;
  // results of one query always qualify on the dyadic grid. Mixed
  // arities or wide values fall back to comparing the vectors.
  const size_t k = ts[0].size();
  uint64_t all = 0;
  bool same_arity = true;
  for (const Tuple& t : ts) {
    same_arity = same_arity && t.size() == k;
    for (uint64_t v : t) all |= v;
  }
  const int width = BitWidth(all);
  if (!same_arity || !Packable(k, width)) {
    std::sort(ts.begin(), ts.end());
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
    return;
  }
  std::vector<uint64_t> keys(ts.size());
  for (size_t i = 0; i < ts.size(); ++i) {
    keys[i] = PackRow(ts[i].data(), k, width);
  }
  SortUniqueKeys(&keys, static_cast<int>(k) * width);
  // Every tuple already has k fields: overwrite the first |keys| in
  // place from the sorted keys and drop the rest.
  ts.resize(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    UnpackRow(keys[i], k, width, ts[i].data());
  }
}

Relation Relation::Make(std::string name, std::vector<std::string> attrs,
                        std::vector<Tuple> tuples) {
  Relation r(std::move(name), std::move(attrs));
  r.Reserve(tuples.size());
  for (const Tuple& t : tuples) r.Add(t);
  r.Canonicalize();
  return r;
}

std::vector<Tuple> Relation::ToTuples() const {
  std::vector<Tuple> out;
  out.reserve(rows_);
  for (TupleRef t : rows()) out.push_back(t.ToTuple());
  return out;
}

void Relation::Add(const Tuple& t) {
  data_.insert(data_.end(), t.begin(), t.end());
  ++rows_;
}

void Relation::AddRow(const uint64_t* v) {
  data_.insert(data_.end(), v, v + attrs_.size());
  ++rows_;
}

void Relation::Append(const Relation& other) {
  data_.insert(data_.end(), other.data_.begin(), other.data_.end());
  rows_ += other.rows_;
}

void Relation::Canonicalize() {
  const size_t k = attrs_.size();
  if (rows_ <= 1 || k == 0) {
    if (k == 0 && rows_ > 1) rows_ = 1;  // 0-ary: at most the empty tuple
    return;
  }
  uint64_t all = 0;
  for (uint64_t v : data_) all |= v;
  const int width = BitWidth(all);
  if (Packable(k, width)) {
    std::vector<uint64_t> keys(rows_);
    for (size_t i = 0; i < rows_; ++i) {
      keys[i] = PackRow(data_.data() + i * k, k, width);
    }
    SortUniqueKeys(&keys, static_cast<int>(k) * width);
    rows_ = keys.size();
    data_.resize(rows_ * k);
    for (size_t i = 0; i < rows_; ++i) {
      UnpackRow(keys[i], k, width, data_.data() + i * k);
    }
    return;
  }
  // Wide values: sort a row permutation, then gather into a fresh
  // buffer — moving k values per swap during sort would thrash.
  const uint64_t* d = data_.data();
  std::vector<uint32_t> perm(rows_);
  std::iota(perm.begin(), perm.end(), 0u);
  auto row_less = [d, k](uint32_t a, uint32_t b) {
    return std::lexicographical_compare(d + a * k, d + a * k + k, d + b * k,
                                        d + b * k + k);
  };
  std::sort(perm.begin(), perm.end(), row_less);
  std::vector<uint64_t> out;
  out.reserve(data_.size());
  size_t kept = 0;
  for (size_t i = 0; i < perm.size(); ++i) {
    const uint64_t* src = d + static_cast<size_t>(perm[i]) * k;
    if (kept > 0 &&
        std::equal(src, src + k, out.data() + (kept - 1) * k)) {
      continue;  // duplicate of the previously kept row
    }
    out.insert(out.end(), src, src + k);
    ++kept;
  }
  data_ = std::move(out);
  rows_ = kept;
}

bool Relation::Contains(const Tuple& t) const {
  const size_t k = attrs_.size();
  if (t.size() != k) return false;
  if (k == 0) return rows_ > 0;
  const uint64_t* d = data_.data();
  size_t lo = 0, hi = rows_;
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const uint64_t* r = d + mid * k;
    int cmp = 0;
    for (size_t i = 0; i < k; ++i) {
      if (r[i] != t[i]) {
        cmp = r[i] < t[i] ? -1 : 1;
        break;
      }
    }
    if (cmp == 0) return true;
    if (cmp < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

int Relation::AttrIndex(const std::string& name) const {
  for (size_t i = 0; i < attrs_.size(); ++i) {
    if (attrs_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

uint64_t Relation::MaxValue() const {
  uint64_t m = 0;
  for (uint64_t v : data_) m = std::max(m, v);
  return m;
}

}  // namespace tetris

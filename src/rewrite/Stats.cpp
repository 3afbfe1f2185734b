//===- rewrite/Stats.cpp - Operation counting -------------------------------===//

#include "rewrite/Stats.h"

#include "support/Format.h"

#include <algorithm>
#include <vector>

using namespace moma;
using namespace moma::ir;
using namespace moma::rewrite;

unsigned OpStats::multiplies() const {
  return count(OpKind::Mul) + count(OpKind::MulLow) +
         3 * count(OpKind::MulMod);
}

unsigned OpStats::addSubs() const {
  return count(OpKind::Add) + count(OpKind::Sub);
}

std::string OpStats::report() const {
  std::vector<std::pair<unsigned, OpKind>> Sorted;
  for (const auto &[Kind, N] : ByKind)
    Sorted.push_back({N, Kind});
  std::sort(Sorted.rbegin(), Sorted.rend());
  std::string Out = formatv("total %u statements\n", Total);
  for (const auto &[N, Kind] : Sorted)
    Out += formatv("  %-8s %u\n", opKindName(Kind), N);
  return Out;
}

OpStats moma::rewrite::countOps(const Kernel &K) {
  OpStats S;
  for (const Stmt &St : K.Body) {
    ++S.ByKind[St.Kind];
    ++S.Total;
  }
  return S;
}

//===- bench/e2e/Trace.cpp - in-memory span recorder ----------------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "Common.h"
#include "support/Format.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <unordered_map>

using namespace moma;
using namespace moma::e2e;

std::uint32_t Trace::reserve() {
  std::lock_guard<std::mutex> L(Mu);
  return NextId++;
}

void Trace::recordAs(std::uint32_t Id, const char *Name, double Start,
                     double End, std::uint32_t Parent, std::uint64_t Req) {
  std::lock_guard<std::mutex> L(Mu);
  Spans.push_back({Name, Start, End, Id, Parent, Req});
}

std::uint32_t Trace::record(const char *Name, double Start, double End,
                            std::uint32_t Parent, std::uint64_t Req) {
  std::lock_guard<std::mutex> L(Mu);
  std::uint32_t Id = NextId++;
  Spans.push_back({Name, Start, End, Id, Parent, Req});
  return Id;
}

bool Trace::writeJsonl(const std::string &Path) const {
  std::lock_guard<std::mutex> L(Mu);
  std::ofstream Out(Path);
  for (const Span &S : Spans)
    Out << formatv("{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                   "\"id\":%u,\"parent\":%u,\"req\":%llu}\n",
                   S.Name, S.Start, S.End, S.Id, S.Parent,
                   static_cast<unsigned long long>(S.Req));
  return static_cast<bool>(Out);
}

std::string Trace::selfTimeTable() const {
  std::lock_guard<std::mutex> L(Mu);
  // Children per parent, so each span's covered time is the union of its
  // children's intervals clipped to the span.
  std::unordered_map<std::uint32_t, std::vector<const Span *>> Kids;
  for (const Span &S : Spans)
    if (S.Parent)
      Kids[S.Parent].push_back(&S);
  struct Row {
    std::uint64_t Count = 0;
    double Total = 0, Self = 0;
  };
  std::map<std::string, Row> Rows;
  for (const Span &S : Spans) {
    double Covered = 0;
    auto It = Kids.find(S.Id);
    if (It != Kids.end()) {
      std::vector<std::pair<double, double>> Iv;
      for (const Span *C : It->second)
        Iv.emplace_back(std::max(C->Start, S.Start),
                        std::min(C->End, S.End));
      std::sort(Iv.begin(), Iv.end());
      double Reach = S.Start;
      for (const auto &P : Iv) {
        double From = std::max(P.first, Reach);
        if (P.second > From) {
          Covered += P.second - From;
          Reach = P.second;
        }
      }
    }
    Row &R = Rows[S.Name];
    ++R.Count;
    R.Total += S.End - S.Start;
    R.Self += std::max(0.0, S.End - S.Start - Covered);
  }
  std::vector<std::pair<std::string, Row>> Sorted(Rows.begin(), Rows.end());
  std::sort(Sorted.begin(), Sorted.end(), [](const auto &A, const auto &B) {
    return A.second.Self > B.second.Self;
  });
  std::string Out = formatv("%-34s %10s %12s %12s\n", "span", "count",
                            "total_ms", "self_ms");
  for (const auto &E : Sorted)
    Out += formatv("%-34s %10llu %12.3f %12.3f\n", E.first.c_str(),
                   static_cast<unsigned long long>(E.second.Count),
                   E.second.Total * 1e3, E.second.Self * 1e3);
  return Out;
}

Scoped::Scoped(Trace *T, const char *Name, std::uint32_t Parent,
               std::uint64_t Req)
    : T(T), Name(Name), Parent(Parent), Req(Req), Start(0) {
  if (T) {
    Id = T->reserve();
    Start = nowS();
  }
}

Scoped::~Scoped() {
  if (T)
    T->recordAs(Id, Name, Start, nowS(), Parent, Req);
}

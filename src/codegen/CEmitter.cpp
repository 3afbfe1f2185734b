//===- codegen/CEmitter.cpp - C source emission -----------------------------===//

#include "codegen/CEmitter.h"

#include "support/Error.h"
#include "support/Format.h"

#include <cassert>

using namespace moma;
using namespace moma::ir;
using namespace moma::codegen;
using rewrite::LoweredKernel;
using rewrite::LoweredPort;

namespace {

const char *wordType(unsigned WordBits) {
  switch (WordBits) {
  case 16:
    return "uint16_t";
  case 32:
    return "uint32_t";
  case 64:
    return "uint64_t";
  }
  fatalError("emitC: unsupported word width " + std::to_string(WordBits));
}

const char *dwordType(unsigned WordBits) {
  switch (WordBits) {
  case 16:
    return "uint32_t";
  case 32:
    return "uint64_t";
  case 64:
    return "unsigned __int128";
  }
  fatalError("emitC: unsupported word width " + std::to_string(WordBits));
}

/// Per-statement C emission shared by the C and CUDA emitters.
class BodyEmitter {
public:
  BodyEmitter(const Kernel &K, unsigned WordBits, std::string Indent)
      : K(K), WB(WordBits), Indent(std::move(Indent)), WT(wordType(WordBits)),
        DT(dwordType(WordBits)) {}

  std::string run();

private:
  std::string ref(ValueId Id) const { return formatv("v%d", Id); }

  /// Masks \p Expr to \p Bits when narrower than the word type.
  std::string masked(const std::string &Expr, unsigned Bits) const {
    if (Bits >= WB || Bits == 1)
      return Expr;
    return formatv("((%s) & ((%s)1 << %u) - 1)", Expr.c_str(), WT, Bits);
  }

  void line(const std::string &S) { Out += Indent + S + "\n"; }

  /// Declares result \p Id initialized to \p Expr.
  void def(ValueId Id, const std::string &Expr) {
    line(formatv("%s %s = %s;", WT, ref(Id).c_str(), Expr.c_str()));
  }

  std::string freshTemp() { return formatv("t%u", TempCount++); }

  void emitStmt(const Stmt &S);

  const Kernel &K;
  unsigned WB;
  std::string Indent;
  const char *WT;
  const char *DT;
  std::string Out;
  unsigned TempCount = 0;
};

} // namespace

void BodyEmitter::emitStmt(const Stmt &S) {
  auto Op = [&](unsigned I) { return ref(S.Operands[I]); };
  auto Res = [&](unsigned I) { return ref(S.Results[I]); };
  auto Width = [&](ValueId Id) { return K.value(Id).Bits; };

  switch (S.Kind) {
  case OpKind::Const: {
    // Literals are at most one word after lowering.
    assert(S.Literal.bitWidth() <= WB && "unsplit wide literal");
    line(formatv("const %s %s = (%s)0x%llxULL;", WT, Res(0).c_str(), WT,
                 static_cast<unsigned long long>(S.Literal.low64())));
    return;
  }
  case OpKind::Copy:
  case OpKind::Zext:
    def(S.Results[0], Op(0));
    return;
  case OpKind::Add: {
    unsigned W = Width(S.Results[1]);
    std::string T = freshTemp();
    std::string Sum = formatv("(%s)%s + %s", DT, Op(0).c_str(), Op(1).c_str());
    if (S.Operands.size() == 3)
      Sum += " + " + Op(2);
    line(formatv("%s %s = %s;", DT, T.c_str(), Sum.c_str()));
    def(S.Results[1], masked(formatv("(%s)%s", WT, T.c_str()), W));
    def(S.Results[0], formatv("(%s)(%s >> %u)", WT, T.c_str(), W));
    return;
  }
  case OpKind::Sub: {
    unsigned W = Width(S.Results[1]);
    std::string Diff = Op(0) + " - " + Op(1);
    if (S.Operands.size() == 3)
      Diff += " - " + Op(2);
    def(S.Results[1], masked(Diff, W));
    // Borrow: a < b + bin (the double word absorbs b + 1).
    std::string Rhs = formatv("(%s)%s", DT, Op(1).c_str());
    if (S.Operands.size() == 3)
      Rhs += " + " + Op(2);
    def(S.Results[0], formatv("(%s)%s < %s", DT, Op(0).c_str(), Rhs.c_str()));
    return;
  }
  case OpKind::Mul: {
    unsigned W = Width(S.Results[1]);
    std::string T = freshTemp();
    line(formatv("%s %s = (%s)%s * %s;", DT, T.c_str(), DT, Op(0).c_str(),
                 Op(1).c_str()));
    def(S.Results[1], masked(formatv("(%s)%s", WT, T.c_str()), W));
    def(S.Results[0], formatv("(%s)(%s >> %u)", WT, T.c_str(), W));
    return;
  }
  case OpKind::MulLow:
    def(S.Results[0],
        masked(Op(0) + " * " + Op(1), Width(S.Results[0])));
    return;
  case OpKind::AddMod: {
    // Listing 1 _saddmod (with the >= fix, DESIGN.md).
    std::string T = freshTemp();
    line(formatv("%s %s = (%s)%s + %s;", DT, T.c_str(), DT, Op(0).c_str(),
                 Op(1).c_str()));
    def(S.Results[0],
        formatv("%s >= %s ? (%s)(%s - %s) : (%s)%s", T.c_str(),
                Op(2).c_str(), WT, T.c_str(), Op(2).c_str(), WT, T.c_str()));
    return;
  }
  case OpKind::SubMod: {
    // Listing 1 _ssubmod.
    std::string T = freshTemp();
    line(formatv("%s %s = %s;", WT, T.c_str(),
                 masked(Op(0) + " - " + Op(1), Width(S.Results[0])).c_str()));
    def(S.Results[0],
        formatv("%s < %s ? %s : %s",
                Op(0).c_str(), Op(1).c_str(),
                masked(T + " + " + Op(2), Width(S.Results[0])).c_str(),
                T.c_str()));
    return;
  }
  case OpKind::MulMod: {
    // Listing 1 _smulmod: Barrett with shifts by m-2 and m+5.
    std::string T = freshTemp(), R = freshTemp();
    line(formatv("%s %s = (%s)%s * %s;", DT, T.c_str(), DT, Op(0).c_str(),
                 Op(1).c_str()));
    line(formatv("%s %s = %s >> %u;", DT, R.c_str(), T.c_str(),
                 S.ModBits - 2));
    line(formatv("%s *= (%s)%s;", R.c_str(), DT, Op(3).c_str()));
    line(formatv("%s >>= %u;", R.c_str(), S.ModBits + 5));
    line(formatv("%s -= %s * (%s)%s;", T.c_str(), R.c_str(), DT,
                 Op(2).c_str()));
    def(S.Results[0],
        formatv("%s >= %s ? (%s)(%s - %s) : (%s)%s", T.c_str(),
                Op(2).c_str(), WT, T.c_str(), Op(2).c_str(), WT, T.c_str()));
    return;
  }
  case OpKind::Lt:
    def(S.Results[0], Op(0) + " < " + Op(1));
    return;
  case OpKind::Eq:
    def(S.Results[0], Op(0) + " == " + Op(1));
    return;
  case OpKind::Not:
    def(S.Results[0], "!" + Op(0));
    return;
  case OpKind::And:
    def(S.Results[0], Op(0) + " & " + Op(1));
    return;
  case OpKind::Or:
    def(S.Results[0], Op(0) + " | " + Op(1));
    return;
  case OpKind::Xor:
    def(S.Results[0], Op(0) + " ^ " + Op(1));
    return;
  case OpKind::Shl:
    def(S.Results[0],
        masked(formatv("%s << %u", Op(0).c_str(), S.Amount),
               Width(S.Results[0])));
    return;
  case OpKind::Shr:
    def(S.Results[0], formatv("%s >> %u", Op(0).c_str(), S.Amount));
    return;
  case OpKind::Select:
    def(S.Results[0],
        formatv("%s ? %s : %s", Op(0).c_str(), Op(1).c_str(),
                Op(2).c_str()));
    return;
  case OpKind::Split: {
    unsigned H = Width(S.Results[0]);
    def(S.Results[0], formatv("%s >> %u", Op(0).c_str(), H));
    def(S.Results[1], masked(Op(0), H));
    return;
  }
  case OpKind::Concat: {
    unsigned H = Width(S.Operands[1]);
    def(S.Results[0],
        formatv("((%s)%s << %u) | %s", WT, Op(0).c_str(), H, Op(1).c_str()));
    return;
  }
  }
  moma_unreachable("unhandled opcode in C emission");
}

std::string BodyEmitter::run() {
  for (const Stmt &S : K.Body)
    emitStmt(S);
  return std::move(Out);
}

std::string moma::codegen::emitScalarBody(const Kernel &K, unsigned WordBits,
                                          const std::string &Indent) {
  return BodyEmitter(K, WordBits, Indent).run();
}

std::string moma::codegen::emitScalarFunction(const LoweredKernel &L,
                                              unsigned WordBits,
                                              const std::string &FnName,
                                              const std::string &Qualifiers,
                                              const std::string &WordType) {
  std::string Params;
  for (const LoweredPort &P : L.Outputs) {
    unsigned Stored = P.storedWords();
    unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
    for (size_t I = Skip; I < P.Words.size(); ++I) {
      if (!Params.empty())
        Params += ", ";
      Params += formatv("%s *%s%zu", WordType.c_str(), P.Name.c_str(),
                        I - Skip);
    }
  }
  for (const LoweredPort &P : L.Inputs) {
    for (size_t I = 0; I < P.Words.size(); ++I) {
      if (P.IsConstZero[I] || P.isDeadWord(I))
        continue;
      if (!Params.empty())
        Params += ", ";
      Params += formatv("%s v%d", WordType.c_str(), P.Words[I]);
    }
  }

  std::string Src = formatv("%s void %s(%s) {\n", Qualifiers.c_str(),
                            FnName.c_str(), Params.c_str());
  Src += emitScalarBody(L.K, WordBits, "  ");
  for (const LoweredPort &P : L.Outputs) {
    unsigned Stored = P.storedWords();
    unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
    for (size_t I = Skip; I < P.Words.size(); ++I)
      Src += formatv("  *%s%zu = v%d;\n", P.Name.c_str(), I - Skip,
                     P.Words[I]);
  }
  Src += "}\n\n";
  return Src;
}

std::string moma::codegen::portLoadArgs(const LoweredPort &P,
                                        const std::string &BaseExpr) {
  std::string Args;
  unsigned Stored = P.storedWords();
  unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
  for (size_t I = 0; I < P.Words.size(); ++I) {
    // Dead words keep their array slot (the I - Skip index is live-slot
    // arithmetic over const-zero pruning only) but are never passed.
    if (P.IsConstZero[I] || P.isDeadWord(I))
      continue;
    if (!Args.empty())
      Args += ", ";
    Args += formatv("%s[%zu]", BaseExpr.c_str(), I - Skip);
  }
  return Args;
}

std::vector<PortSig> moma::codegen::portSignature(const LoweredKernel &L) {
  std::vector<PortSig> Ports;
  for (const LoweredPort &P : L.Outputs)
    Ports.push_back(PortSig{P.Name, P.storedWords(), /*IsOutput=*/true});
  for (const LoweredPort &P : L.Inputs)
    Ports.push_back(PortSig{P.Name, P.storedWords(), /*IsOutput=*/false});
  return Ports;
}

size_t moma::codegen::broadcastStart(const LoweredKernel &L) {
  for (size_t I = 0; I < L.Inputs.size(); ++I)
    if (L.Inputs[I].Name == "q")
      return I;
  return L.Inputs.size();
}

const LoweredPort *
moma::codegen::findPort(const std::vector<LoweredPort> &Ports,
                        const std::string &Name) {
  for (const LoweredPort &P : Ports)
    if (P.Name == Name)
      return &P;
  return nullptr;
}

EmittedKernel moma::codegen::emitC(const LoweredKernel &L,
                                   const CEmitOptions &Opts) {
  const Kernel &K = L.K;
  if (K.maxBits() > Opts.WordBits)
    fatalError("emitC: kernel not lowered to the requested word width");

  const char *WT = wordType(Opts.WordBits);
  EmittedKernel Out;
  Out.Symbol = "moma_" + K.Name;

  std::string Src;
  if (!Opts.Banner.empty())
    Src += "// " + Opts.Banner + "\n";
  Src += "// Generated by MoMA (multi-word modular arithmetic rewrite\n"
         "// system); word width " +
         std::to_string(Opts.WordBits) +
         " bits. Word order within each\n"
         "// array: most significant first (paper Eq. 14).\n";
  Src += "#include <stdint.h>\n\n";

  // Signature: outputs first, then inputs (paper listing order).
  Out.Ports = portSignature(L);
  std::string Sig;
  for (const PortSig &P : Out.Ports) {
    if (!Sig.empty())
      Sig += ", ";
    Sig += formatv("%s%s %s[%u]", P.IsOutput ? "" : "const ", WT,
                   P.Name.c_str(), P.StoredWords);
  }

  if (Opts.ExternC)
    Src += "#ifdef __cplusplus\nextern \"C\"\n#endif\n";
  Src += formatv("void %s(%s) {\n", Out.Symbol.c_str(), Sig.c_str());

  // Loads: each non-pruned input word is a kernel parameter value.
  for (const LoweredPort &P : L.Inputs) {
    unsigned Stored = P.storedWords();
    unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
    unsigned NonConst = 0;
    for (size_t I = 0; I < P.Words.size(); ++I)
      NonConst += !P.IsConstZero[I];
    if (NonConst != Stored)
      fatalError("emitC: port '" + P.Name +
                 "' pruning does not match its stored-word count");
    for (size_t I = 0; I < P.Words.size(); ++I) {
      if (P.IsConstZero[I] || P.isDeadWord(I))
        continue;
      Src += formatv("  %s v%d = %s[%zu];\n", WT, P.Words[I],
                     P.Name.c_str(), I - Skip);
    }
  }
  Src += "\n";

  Src += emitScalarBody(K, Opts.WordBits, "  ");

  // Stores: only the stored words (top pruned words are provably zero).
  Src += "\n";
  for (const LoweredPort &P : L.Outputs) {
    unsigned Stored = P.storedWords();
    unsigned Skip = static_cast<unsigned>(P.Words.size()) - Stored;
    for (size_t I = Skip; I < P.Words.size(); ++I)
      Src += formatv("  %s[%zu] = v%d;\n", P.Name.c_str(), I - Skip,
                     P.Words[I]);
  }
  Src += "}\n";
  Out.Source = std::move(Src);
  return Out;
}

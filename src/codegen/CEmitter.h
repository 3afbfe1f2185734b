//===- codegen/CEmitter.h - C source emission -----------------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits compilable C from fully lowered kernels. The output matches the
/// structure of the paper's Listings 1-4: machine-word locals, the
/// compiler-supported double word (unsigned __int128 for a 64-bit word)
/// used only to capture carries and wide products, explicit carry/borrow
/// propagation, and Barrett's single conditional subtraction. Every
/// correction and select is emitted as mask arithmetic (`b ^ ((a ^ b) &
/// -(WT)c)`, `t - (q & -(WT)(t >= q))`), never `?:`, so the generated
/// kernels do not branch on data.
///
/// The emitted function takes one pointer per kernel port; each port array
/// holds the value's stored words, most significant first (the paper's
/// bracket order): for a λ-bit value, ceil(λ/ω₀) words — statically-zero
/// top words of non-power-of-two widths are not stored (§4).
///
/// The integration tests compile this output with the host compiler, load
/// it with dlopen, and compare against the IR interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_CODEGEN_CEMITTER_H
#define MOMA_CODEGEN_CEMITTER_H

#include "rewrite/Lower.h"

#include <string>
#include <vector>

namespace moma {
namespace codegen {

/// Emission options.
struct CEmitOptions {
  /// Machine word width; must equal the lowering target. 16, 32 and 64 are
  /// supported (the double word is then uint32_t/uint64_t/__int128).
  unsigned WordBits = 64;
  /// Emit `extern "C"`-compatible linkage (for the dlopen tests).
  bool ExternC = true;
  /// Optional file-level banner comment.
  std::string Banner;
};

/// Signature description of one emitted port.
struct PortSig {
  std::string Name;
  unsigned StoredWords = 0;
  bool IsOutput = false;
};

/// A complete emitted translation unit for one kernel, from any of the
/// three C emitters (emitC, emitGridC, emitVectorC).
struct EmittedKernel {
  std::string Source; ///< self-contained C/C++ source text
  /// Element entry (C linkage): the pointer-per-port function of emitC,
  /// the `_grid` block entry of emitGridC, or the `_vec` lane-loop entry
  /// of emitVectorC.
  std::string Symbol;
  /// Fused radix-2^k stage-group entry (`_fused` or `_vfused`). Set only
  /// by the grid and vector emitters, and only for butterfly kernels.
  std::string FusedSymbol;
  std::vector<PortSig> Ports; ///< outputs first, then inputs
};

/// \p L's port signature in emitted order: outputs first, then inputs.
std::vector<PortSig> portSignature(const rewrite::LoweredKernel &L);

/// Index of the first broadcast input (the modulus port "q"); inputs from
/// there on are broadcast in the grid and vector ABIs. Inputs.size() when
/// the kernel has no "q" port.
size_t broadcastStart(const rewrite::LoweredKernel &L);

/// The port named \p Name in \p Ports, or null.
const rewrite::LoweredPort *
findPort(const std::vector<rewrite::LoweredPort> &Ports,
         const std::string &Name);

/// Stored words of one twiddle-table entry for butterfly kernel \p L: w's
/// plus those of its Shoup companion wq (the runtime's
/// NttTables::EntryWords). \p L must have both ports.
unsigned twiddleEntryWords(const rewrite::LoweredKernel &L);

/// Comma-separated scalar-call arguments loading butterfly kernel \p L's
/// w and wq ports from the twiddle-table entry at \p EntryExpr: w from the
/// entry's first words, wq from the words after them. Shared by the fused
/// walkers and the CUDA NTT stage.
std::string twiddleEntryArgs(const rewrite::LoweredKernel &L,
                             const std::string &EntryExpr);

/// Emits \p L as a C function. \p L must be fully lowered to
/// Opts.WordBits (verified; aborts otherwise).
EmittedKernel emitC(const rewrite::LoweredKernel &L,
                    const CEmitOptions &Opts = {});

/// Emits only the function body statements (shared with the CUDA emitter).
std::string emitScalarBody(const ir::Kernel &K, unsigned WordBits,
                           const std::string &Indent);

/// Emits a self-contained scalar helper function for \p L: outputs as
/// word pointers named "<port><index>", non-pruned input words as
/// by-value parameters named after their value ids, body from
/// emitScalarBody. Shared by the CUDA emitter (qualifiers "__device__
/// static __forceinline__") and the grid-shaped C emitter ("static
/// inline"); \p WordType spells the word type ("u64" under the emitters'
/// typedef).
std::string emitScalarFunction(const rewrite::LoweredKernel &L,
                               unsigned WordBits, const std::string &FnName,
                               const std::string &Qualifiers,
                               const std::string &WordType);

/// Comma-separated scalar-call arguments loading \p P's non-pruned words
/// from \p BaseExpr (an expression for the pointer to the port's first
/// stored word). Shared by the CUDA and grid emitters.
std::string portLoadArgs(const rewrite::LoweredPort &P,
                         const std::string &BaseExpr);

} // namespace codegen
} // namespace moma

#endif // MOMA_CODEGEN_CEMITTER_H

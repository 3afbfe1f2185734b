//===- runtime/PlanKey.h - Canonical plan-cache keys -----------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache key of the batched-dispatch runtime. A PlanKey names one
/// generated-kernel variant: the operation, the canonical widths, and the
/// PlanOptions knobs (reduction, multiply rule, pruning, scheduling).
/// "prune" names the one pruning pipeline (rewrite/PassManager.h); no key
/// names a pass list.
///
/// Canonicalization (see DESIGN.md "PlanKey canonicalization"):
///  * ModBits is the exact modulus bit-width; the container is the
///    smallest 2^k-word power-of-two width with ModBits + 4 <= container
///    (the paper's evaluation shape: four free top bits for Barrett).
///  * The modulus *value* is NOT part of the key. Generated kernels take
///    q (and mu / qinv / r2) as runtime parameters, so one compiled plan
///    serves every modulus of the same bit-width.
///  * Knobs that cannot change the generated code are folded, keeping one
///    cache entry per distinct kernel. The reduction knob only exists for
///    mulmod and axpy; every other op pins it to Barrett (the butterfly
///    multiplies by Shoup's method under either value, so a Montgomery
///    base plan binds the same butterfly). Addmod/submod (no multiply)
///    and the RNS CRT kernels (baked-in reduction) also pin the multiply
///    rule to schoolbook.
///  * Backend and launch geometry are part of the key (a vector and a
///    sim-GPU compilation of the same kernel are distinct artifacts), and
///    every key names its backend. Vector plans fold BlockDim to 0 and
///    append "/vec" (their lane block is fixed, not a knob); SimGpu plans
///    default an unset BlockDim to 256 and append "/simgpu/b<dim>"; Interp
///    plans fold BlockDim to 0 and append "/interp".
///  * FuseDepth (NTT stage fusion, radix-2^k) only exists for butterfly
///    plans: every other op folds it to 1, butterfly clamps it into
///    [1, PlanOptions::MaxFuseDepth] and appends "/f<depth>" when > 1.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_RUNTIME_PLANKEY_H
#define MOMA_RUNTIME_PLANKEY_H

#include "mw/Bignum.h"
#include "rewrite/PlanOptions.h"

#include <cstdint>
#include <string>

namespace moma {
namespace runtime {

/// The scalar kernels the runtime dispatches in batch. The element-wise
/// BLAS vector operations alias onto these (vadd -> AddMod, vsub ->
/// SubMod, vmul -> MulMod); the NTT engine runs on Butterfly. The RNS
/// layer (runtime/RnsContext.h) adds the CRT edge kernels: RnsDecompose
/// reduces one wide element to a word-sized limb residue (generalized
/// Barrett, c = a mod q with a up to the wide container), and
/// RnsRecombineStep accumulates one limb back, yo = (a*x + y) mod q with
/// a = the limb's CRT weight (broadcast), x = the word-sized residue and
/// q = the full RNS modulus M. RnsRescaleStep is the per-limb modulus
/// switching element, co = (x - y)*a mod q with a = the dropped limb's
/// inverse q_last^-1 mod q (broadcast) and y = the dropped limb's
/// residue (one conditional subtraction folds it under q) — run once per
/// surviving limb, it divides exactly by q_last without ever leaving
/// residue form.
enum class KernelOp : std::uint8_t {
  AddMod,
  SubMod,
  MulMod,
  Butterfly,
  Axpy,
  RnsDecompose,
  RnsRecombineStep,
  RnsRescaleStep
};

/// Mnemonic kernel-op name ("addmod", ..., "butterfly").
const char *kernelOpName(KernelOp Op);

/// Canonical description of one compiled kernel variant.
struct PlanKey {
  KernelOp Op = KernelOp::MulMod;
  unsigned ContainerBits = 128; ///< canonical power-of-two-word container
  unsigned ModBits = 124;       ///< exact modulus bit-width
  /// RnsDecompose only: stored words of the wide input being reduced
  /// (the RNS base's elemWords(M)); the container is then the smallest
  /// power-of-two-word width holding those words, not the limb's
  /// canonical container. Folded to 0 for every other op.
  unsigned WideWords = 0;
  rewrite::PlanOptions Opts; ///< generation knobs (canonicalized)

  /// Smallest 2^k * WordBits container with ModBits + 4 <= container.
  static unsigned canonicalContainerBits(unsigned ModBits, unsigned WordBits);

  /// Pins the reduction and multiply-rule knobs of \p Opts that \p Op's
  /// kernel ignores (the first fold of forModulus), so a tool lowering a
  /// kernel outside the runtime builds and names the variant the runtime
  /// would.
  static void foldArithmeticKnobs(KernelOp Op, rewrite::PlanOptions &Opts);

  /// Builds the canonical key for \p Op over modulus \p Q with the knob
  /// values of \p Opts (container derived, knobs folded per the rules
  /// above).
  static PlanKey forModulus(KernelOp Op, const mw::Bignum &Q,
                            const rewrite::PlanOptions &Opts = {});

  /// forModulus for the RNS CRT kernels: \p WideWords is the stored word
  /// count of the wide side (required for RnsDecompose, ignored
  /// elsewhere). The CRT kernels pin their variant knobs — generalized
  /// Barrett reduction, schoolbook multiply — so the whole knob grid maps
  /// onto one cache entry per problem shape.
  static PlanKey forRns(KernelOp Op, const mw::Bignum &Q, unsigned WideWords,
                        const rewrite::PlanOptions &Opts = {});

  /// The problem part of the key (no variant knobs except the word size):
  /// "mulmod/c128/m124/w64". Autotune decisions are stored per problem.
  std::string problemStr() const;

  /// The full canonical key: problemStr() + "/" + variant knobs, e.g.
  /// "mulmod/c128/m124/w64/barrett/schoolbook/prune/noschedule/vec".
  std::string str() const;

  bool operator==(const PlanKey &K) const {
    return Op == K.Op && ContainerBits == K.ContainerBits &&
           ModBits == K.ModBits && WideWords == K.WideWords &&
           Opts == K.Opts;
  }
  bool operator!=(const PlanKey &K) const { return !(*this == K); }
};

} // namespace runtime
} // namespace moma

#endif // MOMA_RUNTIME_PLANKEY_H

//===- runtime/Backend.cpp - Execution backends ---------------------------===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//

#include "runtime/Backend.h"

#include "ir/Interp.h"
#include "support/Format.h"

#include <cstdint>
#include <limits>

using namespace moma;
using namespace moma::runtime;

namespace {

bool fail(std::string *Err, const std::string &Msg) {
  if (Err)
    *Err = Msg;
  return false;
}

/// The JIT-compiled grid ABI (codegen/GridEmitter.h).
using GridFnTy = void (*)(std::uint64_t, std::uint64_t, std::uint64_t,
                          std::uint64_t, std::uint64_t *const *,
                          const std::uint64_t *const *,
                          const std::uint64_t *,
                          const std::uint64_t *const *);
using GridGroupFnTy = void (*)(std::uint64_t, std::uint64_t, std::uint64_t,
                               std::uint64_t, std::uint64_t, std::uint64_t,
                               std::uint64_t *, const std::uint64_t *,
                               const std::uint64_t *, const std::uint32_t *,
                               const std::uint64_t *, const std::uint64_t *,
                               std::uint64_t, const std::uint64_t *const *);

/// The JIT-compiled vector ABI (codegen/VectorEmitter.h).
using VecFnTy = void (*)(std::uint64_t, std::uint64_t *const *,
                         const std::uint64_t *const *, const std::uint64_t *,
                         const std::uint64_t *const *);
using VecGroupFnTy = void (*)(std::uint64_t, std::uint64_t, std::uint64_t,
                              std::uint64_t, std::uint64_t *,
                              const std::uint64_t *, const std::uint64_t *,
                              const std::uint32_t *, const std::uint64_t *,
                              const std::uint64_t *, std::uint64_t,
                              const std::uint64_t *const *);

/// A butterfly plan has outputs xo, yo and data inputs x, y, w, wq (the
/// twiddle's Shoup companion).
bool checkButterflyShape(const CompiledPlan &P, std::string *Err) {
  if (P.NumOutputs != 2 || P.NumDataInputs != 4)
    return fail(Err, "runStageGroup: plan is not a butterfly kernel");
  return true;
}

/// Shared validation of one fused stage-group request against the
/// transform size: the group must cover whole stages inside the
/// transform, with the bit-reversal gather only on the first stage.
bool checkStageGroup(const StageGroup &G, size_t NPoints, std::string *Err) {
  if (G.Depth < 1 || G.Depth > rewrite::PlanOptions::MaxFuseDepth)
    return fail(Err, formatv("runStageGroup: depth %u outside [1, %u]",
                             G.Depth, rewrite::PlanOptions::MaxFuseDepth));
  if (!G.Src || !G.Dst)
    return fail(Err, "runStageGroup: null data pointer");
  if (G.Len0 == 0 || (G.Len0 << G.Depth) > NPoints)
    return fail(Err, formatv("runStageGroup: group [len0 %zu, depth %u] "
                             "does not fit n = %zu",
                             G.Len0, G.Depth, NPoints));
  if (G.Gather && G.Len0 != 1)
    return fail(Err, "runStageGroup: the bit-reversal gather only folds "
                     "into the first stage group");
  if (G.Twist && G.Len0 != 1)
    return fail(Err, "runStageGroup: the negacyclic twist only folds "
                     "into the first stage group");
  return true;
}

/// One interpreted element call over the port frame \p Ports (outputs,
/// data inputs, then the broadcast tail): unpacks every input port into a
/// Bignum (inputs first, so in-place calls see a consistent snapshot),
/// runs the plan's scalar kernel through ir::interpret and packs the
/// outputs back.
void interpCall(const CompiledPlan &P, void *const *Ports) {
  size_t NumIn = P.Lowered.Inputs.size();
  std::vector<mw::Bignum> In(NumIn);
  for (size_t J = 0; J < NumIn; ++J)
    In[J] = unpackWordsMsbFirst(
        static_cast<const std::uint64_t *>(Ports[P.NumOutputs + J]),
        P.Lowered.Inputs[J].storedWords());
  std::vector<mw::Bignum> Out = ir::interpret(*P.InterpKernel, In);
  for (size_t J = 0; J < P.NumOutputs; ++J) {
    std::vector<std::uint64_t> W =
        packWordsMsbFirst(Out[J], P.Lowered.Outputs[J].storedWords());
    std::copy(W.begin(), W.end(), static_cast<std::uint64_t *>(Ports[J]));
  }
}

bool checkInterpPlan(const CompiledPlan &P, std::string *Err) {
  if (P.Key.Opts.Backend != rewrite::ExecBackend::Interp || !P.InterpKernel)
    return fail(Err, "interp backend needs an interpreter plan");
  return true;
}

/// Per-input element strides of one batched call: the caller's
/// InStrides, or else each input port's stored words (ElemWords for every
/// port but the butterfly's wq companion, which spans the container).
std::vector<std::uint64_t> inputStrides(const CompiledPlan &P,
                                        const BatchArgs &Args) {
  std::vector<std::uint64_t> Strides(Args.Ins.size());
  for (size_t I = 0; I < Strides.size(); ++I)
    Strides[I] = Args.InStrides.empty() ? P.Lowered.Inputs[I].storedWords()
                                        : Args.InStrides[I];
  return Strides;
}

} // namespace

//===----------------------------------------------------------------------===//
// InterpBackend
//===----------------------------------------------------------------------===//

bool InterpBackend::runBatch(const CompiledPlan &P, const BatchArgs &Args,
                             size_t N, size_t Rows, std::string *Err) const {
  if (!checkInterpPlan(P, Err))
    return false;
  if (Args.Outs.size() != P.NumOutputs)
    return fail(Err, formatv("runBatch: expected %u output arrays, got %zu",
                             P.NumOutputs, Args.Outs.size()));
  if (Args.Ins.size() != P.NumDataInputs)
    return fail(Err, formatv("runBatch: expected %u input arrays, got %zu",
                             P.NumDataInputs, Args.Ins.size()));
  if (!Args.InStrides.empty() && Args.InStrides.size() != Args.Ins.size())
    return fail(Err, "runBatch: InStrides must be empty or match Ins");
  if (Args.Aux.size() != P.AuxWords.size())
    return fail(Err,
                formatv("runBatch: expected %zu broadcast aux arrays, got %zu",
                        P.AuxWords.size(), Args.Aux.size()));
  void *Ports[8];
  if (P.numPorts() > 8)
    return fail(Err, "runBatch: unsupported plan shape");
  std::vector<std::uint64_t> Strides = inputStrides(P, Args);
  // Row-major batch rows are contiguous and broadcast (stride 0) inputs
  // broadcast across every row, so one call per element over the flat
  // N * Rows product addresses ports exactly as the grid's e = by*n + i
  // indexing does. Outputs may alias inputs: interpCall reads every
  // input before it writes any output.
  for (size_t I = 0; I < N * Rows; ++I) {
    size_t Slot = 0;
    for (std::uint64_t *Out : Args.Outs)
      Ports[Slot++] = Out + I * P.ElemWords;
    for (size_t J = 0; J < Args.Ins.size(); ++J)
      Ports[Slot++] =
          const_cast<std::uint64_t *>(Args.Ins[J] + I * Strides[J]);
    for (const std::uint64_t *A : Args.Aux)
      Ports[Slot++] = const_cast<std::uint64_t *>(A);
    interpCall(P, Ports);
  }
  return true;
}

bool InterpBackend::runStageGroup(const CompiledPlan &P, const StageGroup &G,
                                  const std::uint64_t *Tw,
                                  const std::vector<const std::uint64_t *>
                                      &Aux,
                                  size_t NPoints, size_t Batch,
                                  std::string *Err) const {
  if (!checkInterpPlan(P, Err) || !checkButterflyShape(P, Err) ||
      !checkStageGroup(G, NPoints, Err))
    return false;
  unsigned K = P.ElemWords;
  if (Aux.size() != P.AuxWords.size() || P.numPorts() > 8)
    return fail(Err, "runStageGroup: aux/port shape mismatch");
  if (Batch == 0 || NPoints < 2)
    return true;

  // Port frame: xo, yo, x, y, w, wq, then the broadcast tail. One table
  // entry feeds w and wq, which follows w's words.
  unsigned TE = codegen::twiddleEntryWords(P.Lowered);
  unsigned WWords = P.Lowered.Inputs[2].storedWords();
  void *Ports[8];
  for (size_t I = 0; I < Aux.size(); ++I)
    Ports[6 + I] = const_cast<std::uint64_t *>(Aux[I]);
  auto SetEntry = [&](const std::uint64_t *Entry) {
    Ports[4] = const_cast<std::uint64_t *>(Entry);
    Ports[5] = const_cast<std::uint64_t *>(Entry + WWords);
  };

  // The host-side mirror of the emitted fused kernel (same geometry, same
  // butterfly order — bit-identical by construction): 2^depth elements
  // per virtual thread staged through a register block, gather on the
  // loads, n^-1 on the stores via the zero-x butterfly. In-place groups
  // take the same path: a thread loads all its elements before it stores
  // any, and callers run a group in place only when each thread's read
  // set is its write set (StageGroup). One allocation per dispatch,
  // amortized over the whole batch.
  size_t M = size_t(1) << G.Depth;
  size_t NT = NPoints >> G.Depth;
  std::vector<std::uint64_t> Regs(M * K), Dump(K), Zero(K, 0);

  for (size_t B = 0; B < Batch; ++B) {
    const std::uint64_t *SrcRow = G.Src + B * NPoints * K;
    std::uint64_t *DstRow = G.Dst + B * NPoints * K;
    size_t Grp = 0, R = 0; // thread t = Grp * Len0 + R
    for (size_t T = 0; T < NT; ++T) {
      size_t Base = Grp * (G.Len0 << G.Depth) + R;
      for (size_t J = 0; J < M; ++J) {
        size_t E = Base + J * G.Len0;
        size_t S = G.Gather ? size_t(G.Gather[E]) : E;
        const std::uint64_t *Src = SrcRow + S * K;
        std::copy(Src, Src + K, Regs.begin() + J * K);
        if (G.Twist) {
          // Forward negacyclic fold: the value just loaded is
          // coefficient a_S, multiplied by ψ^S through the zero-x
          // butterfly (mirrors the emitted fused kernel).
          Ports[0] = Regs.data() + J * K;
          Ports[1] = Dump.data();
          Ports[2] = Zero.data();
          Ports[3] = Regs.data() + J * K;
          SetEntry(G.Twist + S * TE);
          interpCall(P, Ports);
        }
      }
      for (unsigned D = 0; D < G.Depth; ++D) {
        size_t H = size_t(1) << D;
        size_t L = G.Len0 << D;
        for (size_t J0 = 0; J0 < M; J0 += 2 * H)
          for (size_t J = J0; J < J0 + H; ++J) {
            std::uint64_t *X = Regs.data() + J * K;
            std::uint64_t *Y = Regs.data() + (J + H) * K;
            Ports[0] = X;
            Ports[1] = Y;
            Ports[2] = X;
            Ports[3] = Y;
            SetEntry(Tw + (L - 1 + R + (J - J0) * G.Len0) * TE);
            interpCall(P, Ports);
          }
      }
      if (G.Scale)
        for (size_t J = 0; J < M; ++J) {
          Ports[0] = Regs.data() + J * K;
          Ports[1] = Dump.data();
          Ports[2] = Zero.data();
          Ports[3] = Regs.data() + J * K;
          // ScaleStride 0 broadcasts (cyclic n^-1); the entry size
          // indexes the per-output untwist table at the natural-order
          // element index.
          SetEntry(G.Scale + (Base + J * G.Len0) * G.ScaleStride);
          interpCall(P, Ports);
        }
      for (size_t J = 0; J < M; ++J)
        std::copy(Regs.begin() + J * K, Regs.begin() + (J + 1) * K,
                  DstRow + (Base + J * G.Len0) * K);
      if (++R == G.Len0) {
        R = 0;
        ++Grp;
      }
    }
  }
  return true;
}

//===----------------------------------------------------------------------===//
// SimGpuBackend
//===----------------------------------------------------------------------===//

SimGpuBackend::SimGpuBackend(const sim::DeviceProfile &Profile)
    : Dev(Profile) {}

bool SimGpuBackend::validGeometry(const CompiledPlan &P,
                                  std::string *Err) const {
  unsigned BD = P.Key.Opts.BlockDim;
  if (BD == 0 || BD > Dev.profile().MaxThreadsPerBlock)
    return fail(Err,
                formatv("sim-GPU launch: block dimension %u outside "
                        "[1, %u] on %s",
                        BD, Dev.profile().MaxThreadsPerBlock,
                        Dev.profile().Name.c_str()));
  return true;
}

bool SimGpuBackend::runBatch(const CompiledPlan &P, const BatchArgs &Args,
                             size_t N, size_t Rows, std::string *Err) const {
  if (P.Key.Opts.Backend != rewrite::ExecBackend::SimGpu || !P.Fn)
    return fail(Err, "sim-GPU backend needs a plan compiled with a grid "
                     "entry point");
  if (!validGeometry(P, Err))
    return false;
  if (Args.Outs.size() != P.NumOutputs ||
      Args.Ins.size() != P.NumDataInputs ||
      Args.Aux.size() != P.AuxWords.size() ||
      (!Args.InStrides.empty() && Args.InStrides.size() != Args.Ins.size()))
    return fail(Err, "sim-GPU runBatch: argument shape mismatch");
  if (N == 0 || Rows == 0)
    return true;

  std::vector<std::uint64_t> Strides = inputStrides(P, Args);

  unsigned BD = P.Key.Opts.BlockDim;
  std::uint64_t GridX = (N + BD - 1) / BD;
  if (GridX > std::numeric_limits<std::uint32_t>::max() ||
      Rows > std::numeric_limits<std::uint32_t>::max())
    return fail(Err, "sim-GPU runBatch: grid too large");

  sim::LaunchConfig Cfg;
  Cfg.GridX = static_cast<std::uint32_t>(GridX);
  Cfg.GridY = static_cast<std::uint32_t>(Rows);
  Cfg.BlockDim = BD;
  // Pre-validate so a refused launch (including an injected sim.launch
  // fault) is a graceful dispatch error, not the launch-path abort.
  if (std::string VErr = Dev.validate(Cfg); !VErr.empty())
    return fail(Err, "sim-GPU launch: " + VErr);
  auto Fn = reinterpret_cast<GridFnTy>(P.Fn);
  Dev.launchBlocks(Cfg, [&](std::uint32_t BX, std::uint32_t BY) {
    Fn(BX, BY, BD, N, Args.Outs.data(), Args.Ins.data(), Strides.data(),
       Args.Aux.data());
  });
  return true;
}

bool SimGpuBackend::runStageGroup(const CompiledPlan &P, const StageGroup &G,
                                  const std::uint64_t *Tw,
                                  const std::vector<const std::uint64_t *>
                                      &Aux,
                                  size_t NPoints, size_t Batch,
                                  std::string *Err) const {
  if (P.Key.Opts.Backend != rewrite::ExecBackend::SimGpu || !P.GroupFn)
    return fail(Err, "sim-GPU backend needs a plan compiled with a fused "
                     "stage-group entry point");
  if (!checkButterflyShape(P, Err) || !validGeometry(P, Err) ||
      !checkStageGroup(G, NPoints, Err))
    return false;
  if (Aux.size() != P.AuxWords.size())
    return fail(Err, "runStageGroup: aux shape mismatch");
  if (Batch == 0 || NPoints < 2)
    return true;

  unsigned BD = P.Key.Opts.BlockDim;
  std::uint64_t Threads = NPoints >> G.Depth; // one per 2^depth points
  std::uint64_t GridX = (Threads + BD - 1) / BD;
  if (GridX > std::numeric_limits<std::uint32_t>::max() ||
      Batch > std::numeric_limits<std::uint32_t>::max())
    return fail(Err, "sim-GPU runStageGroup: grid too large");

  sim::LaunchConfig Cfg;
  Cfg.GridX = static_cast<std::uint32_t>(GridX);
  Cfg.GridY = static_cast<std::uint32_t>(Batch); // paper 5.1 batch dim
  Cfg.BlockDim = BD;
  if (std::string VErr = Dev.validate(Cfg); !VErr.empty())
    return fail(Err, "sim-GPU launch: " + VErr);
  auto Fn = reinterpret_cast<GridGroupFnTy>(P.GroupFn);
  Dev.launchBlocks(Cfg, [&](std::uint32_t BX, std::uint32_t BY) {
    Fn(BX, BY, BD, NPoints, G.Len0, G.Depth, G.Dst, G.Src, Tw, G.Gather,
       G.Twist, G.Scale, G.ScaleStride, Aux.data());
  });
  return true;
}

//===----------------------------------------------------------------------===//
// VectorBackend
//===----------------------------------------------------------------------===//

bool VectorBackend::runBatch(const CompiledPlan &P, const BatchArgs &Args,
                             size_t N, size_t Rows, std::string *Err) const {
  if (P.Key.Opts.Backend != rewrite::ExecBackend::Vector || !P.Fn)
    return fail(Err, "vector backend needs a plan compiled with a lane-loop "
                     "entry point");
  if (Args.Outs.size() != P.NumOutputs ||
      Args.Ins.size() != P.NumDataInputs ||
      Args.Aux.size() != P.AuxWords.size() ||
      (!Args.InStrides.empty() && Args.InStrides.size() != Args.Ins.size()))
    return fail(Err, "vector runBatch: argument shape mismatch");
  if (N == 0 || Rows == 0)
    return true;

  std::vector<std::uint64_t> Strides = inputStrides(P, Args);

  // Row-major batch rows are contiguous and broadcast (stride 0) inputs
  // broadcast across every row, so the element loop runs over the flat
  // N * Rows element product in one call.
  auto Fn = reinterpret_cast<VecFnTy>(P.Fn);
  Fn(N * Rows, Args.Outs.data(), Args.Ins.data(), Strides.data(),
     Args.Aux.data());
  return true;
}

bool VectorBackend::runStageGroup(const CompiledPlan &P, const StageGroup &G,
                                  const std::uint64_t *Tw,
                                  const std::vector<const std::uint64_t *>
                                      &Aux,
                                  size_t NPoints, size_t Batch,
                                  std::string *Err) const {
  if (P.Key.Opts.Backend != rewrite::ExecBackend::Vector || !P.GroupFn)
    return fail(Err, "vector backend needs a plan compiled with a fused "
                     "stage-group entry point");
  if (!checkButterflyShape(P, Err) || !checkStageGroup(G, NPoints, Err))
    return false;
  if (Aux.size() != P.AuxWords.size())
    return fail(Err, "runStageGroup: aux shape mismatch");
  if (Batch == 0 || NPoints < 2)
    return true;
  auto Fn = reinterpret_cast<VecGroupFnTy>(P.GroupFn);
  Fn(Batch, NPoints, G.Len0, G.Depth, G.Dst, G.Src, Tw, G.Gather, G.Twist,
     G.Scale, G.ScaleStride, Aux.data());
  return true;
}

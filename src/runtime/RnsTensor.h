//===- runtime/RnsTensor.h - Residue-form batch handle ---------*- C++ -*-===//
//
// Part of the MoMA project, reproducing "Code Generation for Cryptographic
// Kernels using Multi-word Modular Arithmetic on GPU" (CGO 2025).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The residue-form handle of the RNS runtime: a batch of wide elements
/// held as limb-major residues, tagged with the RnsContext it lives in,
/// its polynomial shape, ring, and — the part that buys laziness — the
/// representation domain the residues are currently in (coefficient or
/// NTT).
///
/// Why it exists: the flat-pointer rnsPolyMul is one-shot — every call
/// decomposes its wide inputs and recombines its wide output, so chained
/// FHE-style traffic pays the CRT edges (and a full inverse/forward NTT
/// round trip) on every hop. Real FHE pipelines keep
/// data resident in residue form across many operations. RnsTensor is
/// that residency: Dispatcher::fromWide / toWide are the only points
/// where the CRT edges run, the tensor overloads of rnsVAdd/rnsVMul/
/// rnsPolyMul never touch them, and the domain tag lets back-to-back
/// polynomial products skip the inverse+forward NTT pair entirely
/// (pointwise products compose in the transformed domain; additions are
/// linear in either).
///
/// Domain-tag state machine (see DESIGN.md "FHE layer & residue-form
/// handles"):
///   Coeff --rnsPolyMul/rnsNttForward--> Ntt
///   Ntt   --toWide/rnsRescale/rnsNttInverse--> Coeff
///   rnsVAdd: any matching pair, domain preserved (mixed operands are
///   harmonized toward Ntt); rnsVMul: element-wise semantics, so both
///   operands are forced to Coeff first.
/// The tag travels with the data: Dispatcher ops that transform storage
/// update the tag in the same call, so a tensor is always decodable by
/// (data, tag) alone.
///
/// Storage: limb-major, limb l owning the count() = nPoints()*batch()
/// single-word residues at [l*count(), (l+1)*count()) — the same layout
/// the flat API's scratch uses, which is why the flat rnsPolyMul can wrap
/// this API bit-for-bit. A tensor either owns its storage (the normal
/// case) or borrows caller storage (RnsTensor::borrow — the flat
/// rnsPolyMul leases pooled scratch this way, keeping its zero
/// steady-state allocation).
///
/// Lifetime: a tensor references its RnsContext (and, after a rescale,
/// the context's subChain view); the context must outlive every tensor
/// tagged with it — the same contract the flat API documents per call.
///
//===----------------------------------------------------------------------===//

#ifndef MOMA_RUNTIME_RNSTENSOR_H
#define MOMA_RUNTIME_RNSTENSOR_H

#include "rewrite/PlanOptions.h"
#include "runtime/RnsContext.h"

#include <cstdint>
#include <vector>

namespace moma {
namespace runtime {

/// Which representation a tensor's residues are currently in.
enum class RnsDomain : std::uint8_t {
  Coeff, ///< per-limb polynomial coefficients (the decodable truth)
  Ntt    ///< per-limb forward-transformed (pointwise-product) form
};

/// Stable lower-case name ("coeff" / "ntt") for logging and tests.
const char *rnsDomainName(RnsDomain D);

/// A batch of wide elements resident in residue form. Cheap to move;
/// copying copies the residues (owned storage) or the borrow (borrowed).
class RnsTensor {
public:
  RnsTensor() = default;

  /// Owning tensor over \p Ctx: allocates numLimbs * NPoints * Batch
  /// residue words (zero-initialized, a valid encoding of zero).
  RnsTensor(const RnsContext &Ctx, size_t NPoints, size_t Batch,
            rewrite::NttRing Ring = rewrite::NttRing::Cyclic,
            RnsDomain Domain = RnsDomain::Coeff);

  /// Non-owning view over caller storage of numLimbs * NPoints * Batch
  /// words in the limb-major layout. The storage must outlive the view;
  /// Dispatcher ops write through it (that is the point — the flat
  /// rnsPolyMul borrows pooled scratch).
  static RnsTensor borrow(const RnsContext &Ctx, std::uint64_t *Data,
                          size_t NPoints, size_t Batch,
                          rewrite::NttRing Ring = rewrite::NttRing::Cyclic,
                          RnsDomain Domain = RnsDomain::Coeff);

  /// False for a default-constructed (empty) tensor.
  bool valid() const { return Ctx != nullptr; }

  /// The chain this tensor currently lives in. After rnsRescale this is
  /// the original context's subChain view — one limb shorter.
  const RnsContext &context() const { return *Ctx; }
  size_t numLimbs() const { return Ctx->numLimbs(); }
  size_t nPoints() const { return NPts; }
  size_t batch() const { return Bat; }
  /// Residues per limb (= elements in the logical wide batch).
  size_t count() const { return NPts * Bat; }
  /// Total stored words: numLimbs() * count().
  size_t words() const { return Ctx->numLimbs() * count(); }
  rewrite::NttRing ring() const { return Ring; }

  RnsDomain domain() const { return Domain; }
  /// Dispatcher ops keep the tag truthful; external code should only
  /// need this when it rewrites the storage itself.
  void setDomain(RnsDomain D) { Domain = D; }

  std::uint64_t *data() { return Ext ? Ext : Owned.data(); }
  const std::uint64_t *data() const { return Ext ? Ext : Owned.data(); }
  /// Limb \p L's dense residue row.
  std::uint64_t *limbData(size_t L) { return data() + L * count(); }
  const std::uint64_t *limbData(size_t L) const {
    return data() + L * count();
  }

  /// True when \p O has the same context (by identity), shape, and ring
  /// — the precondition of every binary tensor op.
  bool congruent(const RnsTensor &O) const {
    return Ctx == O.Ctx && NPts == O.NPts && Bat == O.Bat && Ring == O.Ring;
  }

  /// Rebinds the tensor to \p NewCtx (used by rnsRescale after dropping
  /// the last limb; the surviving rows keep their positions because the
  /// layout is limb-major). Internal to the Dispatcher in practice.
  void rebindContext(const RnsContext &NewCtx) { Ctx = &NewCtx; }

private:
  const RnsContext *Ctx = nullptr;
  size_t NPts = 0, Bat = 0;
  rewrite::NttRing Ring = rewrite::NttRing::Cyclic;
  RnsDomain Domain = RnsDomain::Coeff;
  std::uint64_t *Ext = nullptr;      ///< borrowed storage, else null
  std::vector<std::uint64_t> Owned;  ///< owning storage
};

} // namespace runtime
} // namespace moma

#endif // MOMA_RUNTIME_RNSTENSOR_H

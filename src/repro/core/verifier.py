"""The public verifier — Challenge and Verify (Section IV-B) and the
sampling analysis of Section IV-C / Table II.

Verification checks Eq. 6:

    e(σ, g)  ==  e( ∏_{i∈I} H(id_i)^{β_i} · ∏_{l=1}^{k} u_l^{α_l} ,  pk ).

The verifier needs only the public key, the block identifiers, and the
(k + 1)-element response — never the data itself.  Anonymity is structural:
everything on the right-hand side involves the *organization's* key, so
nothing identifies which member created the blocks.

Sampling: challenging c random blocks detects an f-fraction corruption with
probability 1 − (1 − f)^c; c = 460 gives > 99% for f = 1% (the paper's
Table II setting, following Ateniese et al.).
"""

from __future__ import annotations

import math
import secrets
from collections.abc import Callable

from repro.core.blocks import make_block_id
from repro.core.challenge import Challenge, ProofResponse
from repro.core.params import SystemParams
from repro.ec.hash_to_curve import HashCache
from repro.pairing.interface import GroupElement


def detection_probability(corrupt_fraction: float, challenged: int) -> float:
    """P[detect] = 1 − (1 − f)^c under uniform random sampling.

    >>> round(detection_probability(0.01, 460), 4)  # the paper's Table II c
    0.9902

    Raises:
        ValueError: if ``corrupt_fraction`` is outside [0, 1].
    """
    if not 0.0 <= corrupt_fraction <= 1.0:
        raise ValueError("corrupt_fraction must be in [0, 1]")
    return 1.0 - (1.0 - corrupt_fraction) ** challenged

def blocks_needed_for_detection(corrupt_fraction: float, target_probability: float) -> int:
    """Smallest c with detection probability >= target (paper: f=1%, 99% -> c=460)."""
    if not 0.0 < corrupt_fraction < 1.0:
        raise ValueError("corrupt_fraction must be in (0, 1)")
    if not 0.0 < target_probability < 1.0:
        raise ValueError("target_probability must be in (0, 1)")
    return math.ceil(math.log(1.0 - target_probability) / math.log(1.0 - corrupt_fraction))


def bisect_failures(n: int, check_range: Callable[[int, int], bool]) -> list[int]:
    """The positions in ``range(n)`` that a binary split isolates as failing.

    Group testing: ``check_range(lo, hi)`` checks the half-open range
    [lo, hi) in one aggregate check (one range challenge, one
    :meth:`PublicVerifier.verify_batch`) and returns whether it passes.  A
    failing range splits at its midpoint until single positions remain, so
    f failures among n cost O(f · log n) checks and a clean range costs
    one.  Ranges are visited depth-first, lower half first, so the visit
    sequence depends only on the outcomes; the returned positions ascend.
    """
    failures: list[int] = []
    # Explicit stack, popping the most recently pushed range and pushing
    # (mid, hi) before (lo, mid): depth-first, low-first.
    stack = [(0, n)] if n else []
    while stack:
        lo, hi = stack.pop()
        if check_range(lo, hi):
            continue
        if hi - lo == 1:
            failures.append(lo)
            continue
        mid = (lo + hi) // 2
        stack.append((mid, hi))
        stack.append((lo, mid))
    return failures


class PublicVerifier:
    """Anyone auditing cloud data: a data user, a TPA, or the cloud itself.

    A verifier keeps the raw H(id) points of the blocks it has checked in
    its own bounded :class:`~repro.ec.hash_to_curve.HashCache`, so auditing
    the same blocks again skips their try-and-increment hashing.  The
    cache starts empty, is never shared, and is not pickled.
    """

    def __init__(self, params: SystemParams, org_pk: GroupElement, rng=None, pool=None):
        self.params = params
        self.group = params.group
        self.org_pk = org_pk
        self._rng = rng
        self.pool = pool
        self.hash_cache = HashCache()

    # -- Challenge -----------------------------------------------------------
    def generate_challenge(
        self,
        file_id: bytes,
        n_blocks: int,
        sample_size: int | None = None,
        beta_bits: int | None = None,
    ) -> Challenge:
        """Build C = {(id_i, β_i)} for a random c-subset of the n blocks.

        Args:
            n_blocks: total blocks n in the stored file.
            sample_size: c; all n blocks when omitted.
            beta_bits: draw β from Z_q with |q| = beta_bits instead of the
                full Z_p — the paper's "small exponentiations" optimization
                (Ferrara et al. give the soundness/size trade-off).
        """
        if sample_size is None or sample_size >= n_blocks:
            indices = list(range(n_blocks))
        else:
            population = range(n_blocks)
            if self._rng is not None:
                indices = sorted(self._rng.sample(population, sample_size))
            else:
                chosen: set[int] = set()
                while len(chosen) < sample_size:
                    chosen.add(secrets.randbelow(n_blocks))
                indices = sorted(chosen)
        betas = [self._random_beta(beta_bits) for _ in indices]
        return Challenge(
            indices=tuple(indices),
            block_ids=tuple(make_block_id(file_id, i) for i in indices),
            betas=tuple(betas),
        )

    def _random_beta(self, beta_bits: int | None) -> int:
        if beta_bits is None:
            bound = self.params.order
        else:
            bound = min(1 << beta_bits, self.params.order)
        if self._rng is not None:
            return self._rng.randrange(1, bound)
        return secrets.randbelow(bound - 1) + 1

    # -- Verify ----------------------------------------------------------------
    def verify(self, challenge: Challenge, response: ProofResponse) -> bool:
        """Eq. 6.  True iff the challenged blocks are intact.

        One :meth:`~repro.pairing.interface.PairingGroup.hashed_pairing_check`
        of σ against χ = ∏ H(id_i)^{β_i} · ∏ u_l^{α_l}.  The type-A group
        runs χ as one (c + k)-term MSM over the raw hashed points and pairs
        it against the cached pk_h = [h mod r]·pk, with no cofactor
        clearing.  With a :class:`~repro.core.parallel.WorkerPool`
        attached, the c hash-to-curve evaluations and their MSM terms fan
        out across workers, which return raw partial sums; the verdict and
        the op tallies are identical either way.  Ids whose raw points
        are in :attr:`hash_cache` are not hashed again; they still tally
        their ``hash_to_g1``.  Op-count cost: (c + k)
        Exp_G1 (``exp_g1_msm`` for nonzero exponents, ``exp_g1_skipped``
        for zero α_l — Section VI-A2 counts (c + k) Exp unconditionally),
        c ``hash_to_g1`` and 2 Pair.

        Raises:
            ValueError: on a challenge with no blocks.
        """
        if len(response.alphas) != self.params.k:
            return False
        if not challenge.block_ids:
            raise ValueError("empty challenge")
        return self.group.hashed_pairing_check(
            response.sigma, self.org_pk, list(challenge.block_ids),
            list(challenge.betas), list(self.params.u), list(response.alphas),
            pool=self.pool, cache=self.hash_cache,
        )

    def verify_batch(
        self, audits: list[tuple[Challenge, ProofResponse]], rng=None
    ) -> bool:
        """Batch-verify audits of several files in one check (2 pairings).

        All files are signed under the same organization key, so L audit
        equations combine with random full-width weights w_i:

            e(∏ σ_i^{w_i}, g)  ==  e(∏ χ_i^{w_i}, pk).

        The weights fold into the exponents: one
        :meth:`~repro.pairing.interface.PairingGroup.hashed_pairing_check`
        over all Σ c_i ids with exponents β_ij·w_i and the u_l with
        exponents w_i·α_il (which the type-A group merges into k terms,
        (Σ_i w_i·α_il)·h⁻¹), against one L-term MSM for the σ side.  Sound
        except with probability ~L/p.  (This is the multi-request
        batching WCWRL11 advertises, free in our setting because there is
        only ever one verification key.)

        Op-count cost: the model tallies of the unfolded form — per file
        c_i ``hash_to_g1``, (c_i + k) Exp terms as in :meth:`verify`, and
        two Exp_G1 for χ_i^{w_i} and σ_i^{w_i}; 2(L − 1) ``mul_g1`` for
        the products; 2 Pair.

        Raises:
            ValueError: on a challenge with no blocks.
        """
        if not audits:
            return True
        weights = []
        for _ in audits:
            if rng is not None:
                weights.append(rng.randrange(1, self.params.order))
            elif self._rng is not None:
                weights.append(self._rng.randrange(1, self.params.order))
            else:
                weights.append(secrets.randbelow(self.params.order - 1) + 1)
        if any(len(response.alphas) != self.params.k for _, response in audits):
            return False
        ids: list[bytes] = []
        id_exponents: list[int] = []
        alphas: list[int] = []
        for (challenge, response), weight in zip(audits, weights):
            if not challenge.block_ids:
                raise ValueError("empty challenge")
            ids += challenge.block_ids
            id_exponents += [beta * weight for beta in challenge.betas]
            alphas += [alpha * weight for alpha in response.alphas]
        group = self.group
        sigma = GroupElement(group, group._msm([resp.sigma.point for _, resp in audits], weights))
        if group.counter is not None:
            # The model still counts the unfolded form: each weight raised
            # as its own Exp on χ_i and σ_i, and the two L-fold products.
            group.counter.exp_g1 += 2 * len(audits)
            group.counter.mul_g1 += 2 * (len(audits) - 1)
        return group.hashed_pairing_check(
            sigma, self.org_pk, ids, id_exponents, list(self.params.u) * len(audits), alphas,
            pool=self.pool, cache=self.hash_cache,
        )

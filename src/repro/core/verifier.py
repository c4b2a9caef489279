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

from repro.core.blocks import make_block_id
from repro.core.challenge import Challenge, ProofResponse
from repro.core.params import SystemParams
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


class PublicVerifier:
    """Anyone auditing cloud data: a data user, a TPA, or the cloud itself."""

    def __init__(self, params: SystemParams, org_pk: GroupElement, rng=None, pool=None):
        self.params = params
        self.group = params.group
        self.org_pk = org_pk
        self._rng = rng
        self.pool = pool

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
        """Eq. 6.  True iff the challenged blocks are intact."""
        if len(response.alphas) != self.params.k:
            return False
        chi = self._challenge_aggregate(challenge, response)
        return self.group.pairing_check(
            [(response.sigma, self.group.g2()), (chi.inverse(), self.org_pk)]
        )

    def verify_batch(
        self, audits: list[tuple[Challenge, ProofResponse]], rng=None
    ) -> bool:
        """Batch-verify audits of several files with 2 pairings total.

        All files are signed under the same organization key, so L audit
        equations combine with random small weights w_i:

            e(∏ σ_i^{w_i}, g)  ==  e(∏ χ_i^{w_i}, pk).

        Sound except with probability ~L/p.  (This is the multi-request
        batching WCWRL11 advertises, free in our setting because there is
        only ever one verification key.)
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
        sigma_acc: GroupElement | None = None
        chi_acc: GroupElement | None = None
        for (challenge, response), weight in zip(audits, weights):
            if len(response.alphas) != self.params.k:
                return False
            chi = self._challenge_aggregate(challenge, response) ** weight
            sigma = response.sigma**weight
            sigma_acc = sigma if sigma_acc is None else sigma_acc * sigma
            chi_acc = chi if chi_acc is None else chi_acc * chi
        return self.group.pairing_check(
            [(sigma_acc, self.group.g2()), (chi_acc.inverse(), self.org_pk)]
        )

    def _challenge_aggregate(self, challenge: Challenge, response: ProofResponse) -> GroupElement:
        """χ = ∏ H(id_i)^{β_i} · ∏ u_l^{α_l}  (the RHS element of Eq. 6).

        One :meth:`~repro.pairing.interface.PairingGroup.hash_multi_exp`
        call: a (c + k)-term multi-scalar multiplication, which the type-A
        group runs over the raw hashed points before clearing the cofactor
        once.  With a :class:`~repro.core.parallel.WorkerPool` attached,
        the c hash-to-curve evaluations and their MSM terms fan out across
        workers, each chunk clearing its own partial (the k-term u-part
        stays local); the result and the op tallies are identical either
        way.  Op-count cost: (c + k) Exp_G1 (``exp_g1_msm`` for nonzero
        exponents, ``exp_g1_skipped`` for zero α_l — Section VI-A2 counts
        (c + k) Exp unconditionally) plus c ``hash_to_g1``.
        """
        if not challenge.block_ids:
            raise ValueError("empty challenge")
        betas = list(challenge.betas)
        if self.pool is not None:
            h_part = self.pool.hash_msm(list(challenge.block_ids), betas)
            u_part = self.group.multi_exp(list(self.params.u), list(response.alphas))
            # Raw, uncounted merge — multi_exp doesn't tally its internal
            # additions either, so serial and pooled tallies match exactly.
            return GroupElement(
                self.group,
                self.group._add(h_part.point, u_part.point, "g1"),
                "g1",
            )
        return self.group.hash_multi_exp(
            list(challenge.block_ids), betas, list(self.params.u), list(response.alphas)
        )

"""Type-A pairing parameter sets and their generation.

A type-A parameter set (PBC's ``a.param``) consists of

* a prime group order ``r`` (the paper's ``p``, |r| = 160 bits),
* a cofactor ``h`` and base-field prime ``q = h*r - 1`` with ``q % 4 == 3``
  (so the curve y² = x³ + x over F_q is supersingular with
  #E(F_q) = q + 1 = h*r and embedding degree 2), and
* a generator of the order-r subgroup.

:func:`generate_type_a_params` reproduces PBC's generation procedure;
``TYPE_A_PARAM_SETS`` pins three sets produced by it so that tests and
benchmarks are deterministic and never pay generation cost:

* ``paper-160`` — |r| = 160, |q| = 512: the paper's parameterization.
* ``test-80``  — |r| = 80,  |q| = 160: mid-size, for integration tests.
* ``toy-64``   — |r| = 64,  |q| = 72:  fast unit-test parameters.

The pinned values below were produced by ``generate_type_a_params`` with the
recorded seeds and re-validated on import by the test suite
(``tests/pairing/test_params.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.ec.jacobian import jac_scalar_mul
from repro.mathkit.ntheory import is_prime, random_prime, sqrt_mod


@dataclass(frozen=True)
class TypeAParams:
    """A pinned type-A parameter set."""

    name: str
    r: int  # prime group order (the paper's p)
    q: int  # base field prime, q = h*r - 1, q % 4 == 3
    h: int  # cofactor
    gx: int  # generator x
    gy: int  # generator y

    def validate(self) -> None:
        """Check all structural invariants; raises ValueError on failure."""
        if not is_prime(self.r):
            raise ValueError("r is not prime")
        if not is_prime(self.q):
            raise ValueError("q is not prime")
        if self.q % 4 != 3:
            raise ValueError("q % 4 != 3")
        # hashed_pairing_check folds G1 terms in with h⁻¹ mod r.
        if math.gcd(self.h, self.r) != 1:
            raise ValueError("gcd(h, r) != 1")
        if self.h * self.r != self.q + 1:
            raise ValueError("q + 1 != h*r")
        if (self.gy * self.gy - (self.gx**3 + self.gx)) % self.q != 0:
            raise ValueError("generator not on y^2 = x^3 + x")


def generate_type_a_params(
    rbits: int = 160, qbits: int = 512, seed: int | None = None, name: str = "generated"
) -> TypeAParams:
    """Generate a fresh type-A parameter set (PBC ``a.param`` procedure).

    Args:
        rbits: bit length of the prime group order.
        qbits: bit length of the base field prime.
        seed: optional seed for reproducible generation.
        name: label stored on the resulting :class:`TypeAParams`.
    """
    rng = random.Random(seed) if seed is not None else random.SystemRandom()
    r = random_prime(rbits, rng)
    hbits = qbits - rbits
    while True:
        # Even cofactor => q odd; retry until q is prime and q % 4 == 3.
        h = (rng.getrandbits(hbits) | (1 << (hbits - 1))) & ~1
        q = h * r - 1
        if q.bit_length() != qbits or q % 4 != 3:
            continue
        if not is_prime(q):
            continue
        break
    # Find a generator of the order-r subgroup: random curve point times h.
    while True:
        x = rng.randrange(q)
        rhs = (x * x * x + x) % q
        y = sqrt_mod(rhs, q)
        if y is None:
            continue
        point = jac_scalar_mul((x, y), h, q)
        if point is None:
            continue
        gx, gy = point
        # The subgroup has prime order r, so any non-identity h-multiple
        # generates it; double-check anyway.
        if jac_scalar_mul(point, r, q) is not None:
            raise AssertionError("generated point does not have order r")
        params = TypeAParams(name=name, r=r, q=q, h=h, gx=gx, gy=gy)
        params.validate()
        return params


# Pinned parameter sets (generated once with the seeds noted; see module
# docstring).  Populated by tools/generate_params.py.
TYPE_A_PARAM_SETS: dict[str, TypeAParams] = {}


def _register(params: TypeAParams) -> None:
    TYPE_A_PARAM_SETS[params.name] = params


_register(TypeAParams(
    name="paper-160",
    r=1074575777916754483821250798145498589902153269657,
    q=7790431750763737492763556083673547090389814916233388379069842571614384555345244854263648869501952543950761300769379519441709313565577366002950832154928103,
    h=7249774200072513348824033372825206117505610937284157175799093196136529649001564670695454101106417538450472,
    gx=6040352268865781771089917358316686218207601049599876265007298645496609775252638131781131134488588539185151193150751344720623080371704964390899906594139330,
    gy=2650027948566141359097488784132676698538970524247229269017868779142705600482825972774692966487320522568512262696616883795884438695644734164155987044918583,
))  # seed=20130701, rbits=160, qbits=512

_register(TypeAParams(
    name="test-80",
    r=717632860660400197574483,
    q=828951145903270636971074141737640762682296102963,
    h=1155118712290334658243708,
    gx=483974979473097436523666726264344561759808111269,
    gy=181425027806810384220927261110051239163695224138,
))  # seed=20130702, rbits=80, qbits=160

_register(TypeAParams(
    name="toy-64",
    r=13350867120742832609,
    q=677102576895593498598043,
    h=50716,
    gx=536263547230638709153861,
    gy=426094241378304246556595,
))  # seed=20130703, rbits=64, qbits=80

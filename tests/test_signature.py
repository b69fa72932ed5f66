"""Shared fingerprint/signature helpers (:mod:`repro.core.signature`).

The solve signature is the serve result cache's correctness contract:
equal signatures must imply bit-identical solution grids, so every
number that shapes the answer (weights, initial data, boundary,
forcing, solver knobs) must move the hash, and nothing else may.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import signature as sig
from repro.distgrid.boundary import DirichletBC
from repro.machine.machine import nacl, stampede2
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem


def _problem(seed=0, n=12, iterations=4, omega=0.9):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(n, n))

    def init(rows, cols):
        return values[np.clip(rows, 0, n - 1), np.clip(cols, 0, n - 1)]

    return JacobiProblem(
        n=n,
        iterations=iterations,
        init=init,
        bc=DirichletBC(lambda r, c: np.sin(0.1 * r) + 0.2 * c),
        weights=StencilWeights.damped_jacobi(omega),
    )


# -- fingerprints --------------------------------------------------------


def test_machine_fingerprint_stable_and_sensitive():
    a, b = sig.machine_fingerprint(nacl(4)), sig.machine_fingerprint(nacl(4))
    assert a == b
    assert len(a) == sig.FINGERPRINT_LEN
    assert sig.machine_fingerprint(nacl(8)) != a
    assert sig.machine_fingerprint(stampede2(4)) != a


def test_machine_fingerprint_matches_machinespec_method():
    m = nacl(4)
    assert m.fingerprint() == sig.machine_fingerprint(m)


def test_problem_signature_format():
    p = JacobiProblem(n=48, iterations=7)
    s = sig.problem_signature(p)
    assert s.startswith("48x48-it7-")
    assert s.endswith("-nosrc")
    q = JacobiProblem(n=48, iterations=7, source=1.5)
    assert sig.problem_signature(q).endswith("-src")


def test_array_digest_covers_shape_dtype_and_bytes():
    a = np.arange(6, dtype=np.float64)
    assert sig.array_digest(a) == sig.array_digest(a.copy())
    assert sig.array_digest(a) != sig.array_digest(a.reshape(2, 3))
    assert sig.array_digest(a) != sig.array_digest(a.astype(np.float32))
    b = a.copy()
    b[0] += 1e-15
    assert sig.array_digest(a) != sig.array_digest(b)


def test_token_rejects_callables():
    with pytest.raises(TypeError, match="materialise"):
        sig._token(lambda: 1)


# -- solve signatures ----------------------------------------------------


def test_solve_signature_equal_for_equal_content():
    """Two problems built from *equal data through different callables*
    key identically: the content key materialises, it does not hash
    code objects."""
    m = nacl(4)
    a = _problem(seed=3)
    b = _problem(seed=3)
    assert a.init is not b.init  # different closures, same data
    assert (
        sig.solve_signature(a, m, "ca-parsec", tile=6, steps=2, ratio=1.0)
        == sig.solve_signature(b, m, "ca-parsec", tile=6, steps=2, ratio=1.0)
    )


@pytest.mark.parametrize(
    "mutate",
    [
        lambda: (_problem(seed=4), nacl(4), "ca-parsec", {"tile": 6}),
        lambda: (_problem(iterations=5), nacl(4), "ca-parsec", {"tile": 6}),
        lambda: (_problem(omega=0.8), nacl(4), "ca-parsec", {"tile": 6}),
        lambda: (_problem(), nacl(8), "ca-parsec", {"tile": 6}),
        lambda: (_problem(), nacl(4), "base-parsec", {"tile": 6}),
        lambda: (_problem(), nacl(4), "ca-parsec", {"tile": 4}),
        lambda: (_problem(), nacl(4), "ca-parsec", {"tile": 6, "steps": 2}),
    ],
)
def test_solve_signature_sensitive_to_answer_shaping_inputs(mutate):
    base = sig.solve_signature(_problem(), nacl(4), "ca-parsec", tile=6)
    problem, machine, impl, params = mutate()
    assert sig.solve_signature(problem, machine, impl, **params) != base


def test_problem_content_key_constant_vs_callable_fields():
    """Constant fields enter the key directly (no materialisation)."""
    doc = sig.problem_content_key(JacobiProblem(n=8, iterations=2))
    assert isinstance(doc["init"], float) and isinstance(doc["bc"], float)
    assert doc["source"] is None
    rich = sig.problem_content_key(_problem())
    assert "grid" in rich["init"] and "frame" in rich["bc"]


def test_tuning_cache_keys_via_shared_module():
    """Satellite contract: the tuning cache derives its keys from this
    module rather than a private duplicate."""
    from repro.tuning import cache as tuning_cache

    p = JacobiProblem(n=48, iterations=7)
    assert tuning_cache.problem_signature(p) == sig.problem_signature(p)


# -- pinned request identity ----------------------------------------------

#: (request knobs, signature()) captured at the commit before RunConfig
#: existed (c7ace3d): the refactor -- and any later one -- must not
#: silently re-key the on-disk result cache.  Keyed by the position each
#: pin had in a longer list (with pins of the since-deleted ``passes``
#: knob), so every test id stays as it was.
PINNED = {
    0: ({"impl": "petsc"},
        "ac5d34ec5909a1d7ccc6d61c3d1e09bbe96694c4c711937767992ed8b69f21bb"),
    2: ({"impl": "base-parsec"},
        "1d20156556c2ce011e9ac769f83864d517e2115d0929d8f511e532db4c2eca6e"),
    3: ({"impl": "base-parsec", "tile": 12},
        "469d779b409ef39bc7798e6c53180e236a7cdd94789ff78b184ee001f8e89e9c"),
    6: ({"impl": "ca-parsec", "steps": 3},
        "54f89ae817465b8b65b9eebda41d0531eb3b28b131eefac976e4df28e276c26a"),
    7: ({"impl": "ca-parsec", "tile": 12, "steps": 3},
        "e09d837be46f84edf9e066a5ff7b36993fc42faf3ebcb7fd3d5ca5e000dc04c0"),
    # A chaos plan, tenant and schedule knobs never touch the signature
    # (it equals the plain tile=12/steps=3 one above).
    10: ({"impl": "ca-parsec", "tile": 12, "steps": 3, "policy": "fifo",
          "backend": "processes", "jobs": 2, "tenant": "t", "retries": 0,
          "chaos_plan": "kill:node=1,step=1"},
         "e09d837be46f84edf9e066a5ff7b36993fc42faf3ebcb7fd3d5ca5e000dc04c0"),
}


@pytest.mark.parametrize("knobs,signature", [
    pytest.param(knobs, signature, id=f"knobs{i}-{signature}")
    for i, (knobs, signature) in PINNED.items()])
def test_request_identity_is_pinned(knobs, signature):
    from repro.serve import SolveRequest

    request = SolveRequest(
        problem=JacobiProblem(n=48, iterations=6), machine=nacl(4), **knobs
    )
    assert request.signature() == signature

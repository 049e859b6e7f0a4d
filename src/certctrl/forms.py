"""Declarative function-form registry for config-driven runs.

Configs reference built-in forms (polynomial, piecewise-linear, trig, and
affine composition) instead of arbitrary expressions, which keeps problem
definitions auditable: every form knows its own Lipschitz constant on a
box and, where meaningful, its derivative.  Scalar forms act on the first
state coordinate (the config-driven demos are one-dimensional).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import ArgumentError, Hypercube, Modulus, poly_eval
from .stability import Comparator

__all__ = [
    "ScalarForm",
    "build_scalar_form",
    "build_comparator",
    "poly_derivative",
    "poly_multiply",
    "parse_complex_matrix",
]


@dataclass(frozen=True)
class ScalarForm:
    """A scalar function of one variable with certificate metadata."""

    fn: Callable[[np.ndarray], np.ndarray]
    lipschitz_on: Callable[[float], float]  # radius -> Lipschitz constant
    derivative: Optional["ScalarForm"] = None
    spec: dict = None

    def __call__(self, x):
        return self.fn(np.asarray(x, dtype=float))

    def modulus(self, radius: float) -> Modulus:
        return Modulus.lipschitz(self.lipschitz_on(radius))


def poly_derivative(coeffs):
    return [k * c for k, c in enumerate(coeffs)][1:] or [0.0]


def poly_multiply(p, q):
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _poly_form(coeffs) -> ScalarForm:
    coeffs = [float(c) for c in coeffs]
    d = poly_derivative(coeffs)

    def lip(radius: float) -> float:
        return float(poly_eval([abs(c) for c in d], radius)) if d else 0.0

    deriv = ScalarForm(
        lambda x, d=d: poly_eval(d, x),
        lambda r, dd=poly_derivative(d): float(poly_eval([abs(c) for c in dd], r)) if dd else 0.0,
        spec={"form": "polynomial", "coeffs": d},
    )
    return ScalarForm(lambda x, c=coeffs: poly_eval(c, x), lip, deriv,
                      spec={"form": "polynomial", "coeffs": coeffs})


def _pwl_form(xs, ys) -> ScalarForm:
    xs = [float(v) for v in xs]
    ys = [float(v) for v in ys]
    if len(xs) != len(ys) or len(xs) < 2 or sorted(xs) != xs:
        raise ArgumentError("piecewise-linear form needs sorted xs matching ys")
    slopes = [
        abs((y1 - y0) / (x1 - x0)) for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])
    ]
    L = max(slopes)
    return ScalarForm(
        lambda x, xs=xs, ys=ys: np.interp(x, xs, ys),
        lambda r, L=L: L,
        spec={"form": "pwl", "xs": xs, "ys": ys},
    )


def _trig_form(terms) -> ScalarForm:
    # sum of a * sin(b x + c)
    terms = [(float(a), float(b), float(c)) for a, b, c in terms]
    L = sum(abs(a * b) for a, b, _ in terms)

    def fn(x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for a, b, c in terms:
            out = out + a * np.sin(b * x + c)
        return out

    deriv_terms = [(a * b, b, c + math.pi / 2.0) for a, b, c in terms]
    deriv = ScalarForm(
        lambda x, t=deriv_terms: sum(a * np.sin(b * x + c) for a, b, c in t),
        lambda r, L2=sum(abs(a * b) for a, b, _ in deriv_terms): L2,
        spec={"form": "trig", "terms": deriv_terms},
    )
    return ScalarForm(fn, lambda r, L=L: L, deriv, spec={"form": "trig", "terms": terms})


def build_scalar_form(spec: dict) -> ScalarForm:
    """Instantiate a registry form from its config dictionary."""
    if not isinstance(spec, dict) or "form" not in spec:
        raise ArgumentError(f"not a function-form reference: {spec!r}")
    kind = spec["form"]
    if kind == "polynomial":
        return _poly_form(spec["coeffs"])
    if kind == "pwl":
        return _pwl_form(spec["xs"], spec["ys"])
    if kind == "trig":
        return _trig_form(spec["terms"])
    if kind == "affine_of":
        inner = build_scalar_form(spec["inner"])
        s, b = float(spec.get("scale", 1.0)), float(spec.get("shift", 0.0))
        deriv = None
        if inner.derivative is not None:
            deriv = ScalarForm(
                lambda x, f=inner.derivative, s=s: s * f(x),
                lambda r, f=inner.derivative, s=s: abs(s) * f.lipschitz_on(r),
                spec={"form": "affine_of", "scale": s, "inner": inner.derivative.spec},
            )
        return ScalarForm(
            lambda x, f=inner, s=s, b=b: s * f(x) + b,
            lambda r, f=inner, s=s: abs(s) * f.lipschitz_on(r),
            deriv,
            spec=spec,
        )
    raise ArgumentError(
        f"unknown function form {kind!r}; registry: polynomial, pwl, trig, affine_of"
    )


def build_comparator(spec: dict, box: Hypercube, name: str = "") -> Comparator:
    """Comparator from a radial polynomial w(x) = sum_k c_k |x|^k
    (k >= 1, coefficients >= 0, some positive), with its Lipschitz
    modulus on the box."""
    if spec.get("form") != "radial_poly":
        raise ArgumentError("comparators must use the radial_poly form")
    coeffs = tuple(float(c) for c in spec["coeffs"])
    # the box's largest |x|
    R = float(np.linalg.norm(np.maximum(-box.lo, box.hi)))
    lip = float(poly_eval([abs(c) for c in poly_derivative((0.0,) + coeffs)], R))
    return Comparator(coeffs, Modulus.lipschitz(lip), name=name or spec.get("name", ""))


def parse_complex_matrix(text: str) -> np.ndarray:
    """Plain-text matrix rows: whitespace-separated `re,im` pairs (the
    imaginary part may be omitted for real entries)."""
    rows = []
    for line in text.strip().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        row = []
        for tok in line.split():
            if "," in tok:
                re_s, im_s = tok.split(",", 1)
                row.append(complex(float(re_s), float(im_s)))
            else:
                row.append(complex(float(tok), 0.0))
        rows.append(row)
    if not rows or any(len(r) != len(rows) for r in rows):
        raise ArgumentError("matrix text must be square rows of re,im pairs")
    return np.array(rows, dtype=complex)

"""Copy-number detectability of assembled products.

An object needing `a` error-prone joining steps survives them all with
probability (1 - eps)^a, so the flawless copy count decays geometrically
in assembly depth. These helpers answer the three standing questions:
how many starting copies guarantee phi detectable survivors, what
per-step error a given start can tolerate, and where the bounds on a
plausible assembly index sit (ceil(log2 B) to B - 1 for B bonds).

The Monte Carlo model walks a population of 6.022e23 copies down 120
assembly steps under a drifting, trajectory-jittered error rate

    eps_s = clip(eps0 * exp(k (s - 1)) + E, 0, 1),  E ~ N(0, sigma) per
    trajectory, drawn once and shared across all eps0 rows,

so rows differ only through eps0 and pointwise ordering between rows is
preserved trajectory by trajectory. Randomness comes from a counter-based
(Philox) generator, making every cell of the result a pure function of
the seed. A config file is a JSON object overriding some of the defaults;
the config checks every value and raises `ValueError`.

Only `monte_carlo` needs numpy, and it imports it on its first call, so
a process that never runs the Monte Carlo never loads numpy.
"""

from __future__ import annotations

import io
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

from .jsonio import fmt_num, is_integer, is_number, loads_object
from .rules import assembly_bounds

__all__ = [
    "N_AVOGADRO",
    "NotDetectable",
    "survival_fraction",
    "n_min",
    "max_error_for",
    "assembly_bounds",
    "MonteCarloConfig",
    "loads_mc_config",
    "load_mc_config",
    "MCResult",
    "monte_carlo",
    "detection_horizon",
    "mc_to_csv",
    "mc_to_svg",
]

N_AVOGADRO = 6.02214076e23

DEFAULT_EPS0 = (0.01, 0.015, 0.02, 0.03, 0.05, 0.06, 0.08, 0.10, 0.20, 0.50)


class NotDetectable(Exception):
    pass


def survival_fraction(eps: float, a: int) -> float:
    """Fraction of copies that come through `a` steps flawless."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"error rate must lie in [0, 1], got {eps}")
    if not (a >= 0 and math.isfinite(a)):
        raise ValueError("assembly index must be non-negative and finite")
    if not is_integer(a):
        raise ValueError("assembly index must be an integer")
    return (1.0 - eps) ** a

def n_min(phi: float, eps_list) -> float:
    """Starting copies needed so phi survive the given per-step errors.
    Infinite when any step is certain to fail (or the survival product
    underflows to zero)."""
    if not (phi > 0 and math.isfinite(phi)):
        raise ValueError("detection threshold must be positive and finite")
    denom = 1.0
    for eps in eps_list:
        if not 0.0 <= eps <= 1.0:
            raise ValueError(f"error rate must lie in [0, 1], got {eps}")
        denom *= 1.0 - eps
    if denom <= 0.0:
        return math.inf
    return phi / denom


def max_error_for(phi: float, n: float, a: int) -> float:
    """Largest uniform per-step error that still leaves phi of n copies
    after `a` steps. Raises NotDetectable when even flawless assembly
    cannot reach the threshold."""
    if not (phi > 0 and a >= 1):
        raise ValueError("need phi > 0 and a >= 1")
    if not (math.isfinite(phi) and math.isfinite(n) and math.isfinite(a)):
        raise ValueError("phi, n and a must be finite")
    if not is_integer(a):
        raise ValueError("assembly index must be an integer")
    if n < phi:
        raise NotDetectable(f"{fmt_num(n)} starting copies cannot yield "
                            f"{fmt_num(phi)} survivors")
    return 1.0 - (phi / n) ** (1.0 / a)


# ---------------------------------------------------------------------------
# Monte Carlo

@dataclass(frozen=True)
class MonteCarloConfig:
    eps0_values: tuple[float, ...] = DEFAULT_EPS0
    drift_rate: float = 0.02        # k in eps0 * exp(k (s-1))
    jitter_sd: float = 0.005        # sigma of the per-trajectory offset
    n0: float = N_AVOGADRO
    n_trajectories: int = 5000
    ai_max: int = 120
    seed: int = 0

    def __post_init__(self) -> None:
        """Reject what `monte_carlo` and `mc_to_svg` cannot use (ValueError);
        the starting error rates become a tuple of floats."""
        eps0 = self.eps0_values
        if not (isinstance(eps0, (list, tuple)) and eps0
                and all(is_number(e) and 0.0 <= e <= 1.0 for e in eps0)):
            raise ValueError("eps0_values must be a non-empty list of error rates in [0, 1]")
        object.__setattr__(self, "eps0_values", tuple(float(e) for e in eps0))
        for name, lowest in (("n_trajectories", 1), ("ai_max", 2), ("seed", 0)):
            value = getattr(self, name)
            if not (is_integer(value) and value >= lowest):
                raise ValueError(f"{name} must be an integer >= {lowest}")
        for name, lowest in (("n0", 1.0), ("jitter_sd", 0.0)):
            value = getattr(self, name)
            if not (is_number(value) and math.isfinite(value) and value >= lowest):
                raise ValueError(f"{name} must be a finite number >= {lowest:g}")
        if not (is_number(self.drift_rate) and math.isfinite(self.drift_rate)):
            raise ValueError("drift_rate must be a finite number")


def loads_mc_config(text: str, where: str = "<string>") -> MonteCarloConfig:
    """A config from a JSON object that overrides some of the defaults.
    Raises ValueError on bad JSON, unknown keys and unusable values."""
    obj = loads_object(text, where, optional=frozenset(f.name for f in fields(MonteCarloConfig)))
    try:
        return MonteCarloConfig(**obj)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def load_mc_config(path: str | Path) -> MonteCarloConfig:
    path = Path(path)
    return loads_mc_config(path.read_text(encoding="utf-8"), where=str(path))


@dataclass
class MCResult:
    config: MonteCarloConfig
    assembly_indices: list[int]
    # a string annotation (see the __future__ import): numpy is not loaded here
    mean_n: dict[float, np.ndarray] = field(default_factory=dict)


# Largest exponent whose exp is finite. Capping the drift's exponent here
# keeps a row with eps0 = 0 at 0 rather than 0 * inf = NaN, and leaves
# every drift that did not overflow as it was.
_MAX_EXPONENT = math.log(sys.float_info.max)

# Trajectories per tile of `monte_carlo`'s sequential sum.
_SUM_BLOCK = 512


def monte_carlo(config: MonteCarloConfig | None = None) -> MCResult:
    import numpy as np

    config = config or MonteCarloConfig()
    rng = np.random.Generator(np.random.Philox(config.seed))
    # one offset per trajectory, shared across every eps0 row
    offsets = rng.normal(0.0, config.jitter_sd, size=config.n_trajectories) \
        if config.jitter_sd > 0 else np.zeros(config.n_trajectories)
    steps = np.arange(1, config.ai_max + 1, dtype=np.float64)
    drift = np.exp(np.minimum(config.drift_rate * (steps - 1.0), _MAX_EXPONENT))
    result = MCResult(config, list(range(1, config.ai_max + 1)))
    # One (step, trajectory) buffer serves every eps0 row. The passes below
    # run in place and round exactly as
    #     cumprod(1 - clip(eps0 * drift + offset, 0, 1), axis=1).mean(axis=0)
    # does on a (trajectory, step) array, so mean_n is bit-identical to that
    # expression. The product runs row by row, p[s] *= p[s - 1]: cumprod's
    # multiplications, each call a contiguous one over every trajectory.
    # The mean must add the trajectories one at a time, in order, as numpy
    # does down the rows of a (trajectory, step) array; along this buffer's
    # own trajectory axis numpy sums pairwise, which would change the CSV.
    # So each block of trajectories is copied, transposed, into a tile
    # whose row 0 holds the running total, and the tile is summed down its
    # rows. The tile stays cache-sized where one transposed copy of the
    # whole buffer would not.
    n = config.n_trajectories
    buf = np.empty((config.ai_max, n))
    rows = list(buf)
    tile = np.empty((_SUM_BLOCK + 1, config.ai_max))
    total = np.empty(config.ai_max)
    for eps0 in config.eps0_values:
        np.add((eps0 * drift)[:, None], offsets, out=buf)
        np.clip(buf, 0.0, 1.0, out=buf)
        np.subtract(1.0, buf, out=buf)
        for prev, cur in zip(rows, rows[1:]):
            np.multiply(cur, prev, out=cur)
        total.fill(0.0)
        for start in range(0, n, _SUM_BLOCK):
            block = buf[:, start:start + _SUM_BLOCK].T
            tile[0] = total
            tile[1:len(block) + 1] = block
            np.add.reduce(tile[:len(block) + 1], axis=0, out=total)
        # what mean computes: the sum, then a true divide by the count
        result.mean_n[eps0] = config.n0 * (total / n)
    return result


def detection_horizon(result: MCResult, phi: float = 1.0) -> dict[float, int | None]:
    """Per eps0, the smallest assembly index whose mean copy number falls
    below phi; None when the population stays detectable throughout."""
    if not (phi > 0 and math.isfinite(phi)):
        raise ValueError("detection threshold must be positive and finite")
    out: dict[float, int | None] = {}
    for eps0, row in result.mean_n.items():
        below = (row < phi).nonzero()[0]
        out[eps0] = int(below[0]) + 1 if below.size else None
    return out


def mc_to_csv(result: MCResult) -> str:
    buf = io.StringIO()
    buf.write("eps0,assembly_index,mean_N\n")
    for eps0 in result.config.eps0_values:
        prefix = f"{fmt_num(eps0)},"
        for a, value in zip(result.assembly_indices, result.mean_n[eps0].tolist()):
            buf.write(f"{prefix}{a},{fmt_num(value)}\n")
    return buf.getvalue()


_PALETTE = (
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
    "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf",
)

_DISPLAY_FLOOR = 1e-30


def mc_to_svg(result: MCResult, phi: float = 1.0) -> str:
    """Self-contained SVG: log10 mean copy number against assembly index,
    one line per starting error rate, with the single-copy threshold."""
    width, height = 720.0, 480.0
    left, right, top, bottom = 64.0, 170.0, 40.0, 56.0
    plot_w = width - left - right
    plot_h = height - top - bottom
    a_min, a_max = 1, result.config.ai_max
    y_max = math.ceil(math.log10(result.config.n0))
    y_min = math.floor(math.log10(_DISPLAY_FLOOR))

    def x_of(a: float) -> float:
        return left + (a - a_min) / (a_max - a_min) * plot_w

    def y_of(logn: float) -> float:
        return top + (y_max - logn) / (y_max - y_min) * plot_h

    out = io.StringIO()
    out.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width:g} {height:g}" '
        f'font-family="Helvetica, Arial, sans-serif" font-size="12">\n')
    out.write(f'<rect width="{width:g}" height="{height:g}" fill="white"/>\n')
    out.write(f'<text x="{left:g}" y="22" font-size="15">'
              'Flawless copies vs assembly index</text>\n')
    # axes
    out.write(f'<line x1="{left:g}" y1="{top:g}" x2="{left:g}" '
              f'y2="{top + plot_h:g}" stroke="black"/>\n')
    out.write(f'<line x1="{left:g}" y1="{top + plot_h:g}" x2="{left + plot_w:g}" '
              f'y2="{top + plot_h:g}" stroke="black"/>\n')
    for tick in range(int(y_min), int(y_max) + 1, 10):
        y = y_of(tick)
        out.write(f'<line x1="{left - 4:g}" y1="{y:.2f}" x2="{left:g}" '
                  f'y2="{y:.2f}" stroke="black"/>\n')
        out.write(f'<text x="{left - 8:g}" y="{y + 4:.2f}" '
                  f'text-anchor="end">1e{tick}</text>\n')
    for tick in range(0, a_max + 1, 20):
        a = max(tick, a_min)
        x = x_of(a)
        out.write(f'<line x1="{x:.2f}" y1="{top + plot_h:g}" x2="{x:.2f}" '
                  f'y2="{top + plot_h + 4:g}" stroke="black"/>\n')
        out.write(f'<text x="{x:.2f}" y="{top + plot_h + 18:g}" '
                  f'text-anchor="middle">{a}</text>\n')
    out.write(f'<text x="{left + plot_w / 2:.2f}" y="{height - 14:g}" '
              f'text-anchor="middle">assembly index</text>\n')
    out.write(f'<text x="16" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
              f'transform="rotate(-90 16 {top + plot_h / 2:.2f})">'
              f'mean flawless copies</text>\n')
    # detection threshold
    y_phi = y_of(math.log10(max(phi, _DISPLAY_FLOOR)))
    out.write(f'<line x1="{left:g}" y1="{y_phi:.2f}" x2="{left + plot_w:g}" '
              f'y2="{y_phi:.2f}" stroke="#888" stroke-dasharray="5,4"/>\n')
    out.write(f'<text x="{left + plot_w - 4:g}" y="{y_phi - 5:.2f}" '
              f'text-anchor="end" fill="#666">detection threshold</text>\n')
    # one polyline per starting error rate
    xs = [f"{x_of(a):.2f}," for a in result.assembly_indices]
    for i, eps0 in enumerate(result.config.eps0_values):
        color = _PALETTE[i % len(_PALETTE)]
        points = " ".join(
            f"{x}{y_of(math.log10(max(value, _DISPLAY_FLOOR))):.2f}"
            for x, value in zip(xs, result.mean_n[eps0].tolist()))
        out.write(f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
                  f'points="{points}"/>\n')
        ly = top + 14 + i * 18
        lx = left + plot_w + 16
        out.write(f'<line x1="{lx:g}" y1="{ly - 4:.2f}" x2="{lx + 22:g}" '
                  f'y2="{ly - 4:.2f}" stroke="{color}" stroke-width="3"/>\n')
        out.write(f'<text x="{lx + 28:g}" y="{ly:.2f}">eps0 = '
                  f'{fmt_num(eps0)}</text>\n')
    out.write("</svg>\n")
    return out.getvalue()

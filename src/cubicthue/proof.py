"""The certified proof quantities of a cell: b0, the window of v_bar, u_bar and w_bar.

The proof quantities are computed in the fixed point of roots.py: integers
over 2^K, each with an integer error radius in units of 2^-K.  The
conjugates come from a triple of numerators with radii, so alpha1 - alpha2
and alpha1 - alpha3 are integer differences whose radii add.  Their logs are
taken in integers too, by roots.fixed_log, with the radius proved there: the
relative error of the difference (radius over |numerator| - radius) and the
kernel's floors, log-2 error and series tail.  The root logs and the
regulator carry the radii the root set gave them, and v1 and v2 are the
Cramer numerators of the unit-exponent system on log|d12| and log|d13|
(log_system, which solver.decompose_unit shares): sums of fixed-point
products whose radius follows from those.  b0 and the window 0 < v_bar < R
are decided only when (v1 + v2) mod R lies farther than that radius (plus b0
times the regulator's) from 0 and from R; otherwise _quantities returns None
and its caller retries at doubled bits through roots.escalate, as every open
interval does (the "Precision" paragraph of roots.py).  So a b0 this module
reports is the true one, whatever the cancellation in v_bar = b0 R - v1 - v2.
The other decisions of the lower-bound chain (u_bar > 0, the w_bar absorption)
are made on the same integers, without a division (see bounds._chain); the
radii of u1, u2, d12 and d13 are not kept, so those decisions are not certified.

The cells (s, t), phi(s, t) = (t - s, -s) and phi^2(s, t) = (-t, s - t) of
one orbit have the same three conjugates in a cyclic order: those of
phi^m(s, t) are alpha_(j + shift) of (s, t), with shift = 2m mod 3.  So
_quantities takes the triple and the shift of a cell, and the triple takes
each log |alpha_i - alpha_j| once (roots.AlphaTriple.diff_log), or from its
mirror, the triple of the orbit of (-s, -t).  The once-twisted cells (0, -s)
and (-s, 0) are the rotations of the diagonal cell (s, s), so every cell but
(0, 0), whose conjugates are all 1 (forms.check_twist), takes this one path.
bounds.cell_reports and the harnesses plan the cells of an n by
roots.orbit_triples; the one-cell case is compute_proof_quantities, on
compute_alphas's triple.
"""

from __future__ import annotations

from dataclasses import dataclass

from .forms import check_twist
from .roots import attempts, compute_alphas, escalate, fixed_mul, proof_precision


def _ordered_diffs(tri, shift: int):
    """alpha1 - alpha2 and alpha1 - alpha3, as (numerator, radius) pairs over 2^K,
    of the cell whose conjugates are those of tri from index shift on."""
    i, j, k, nums, radii = shift, (shift + 1) % 3, (shift + 2) % 3, tri.numerators, tri.radii
    return (nums[i] - nums[j], radii[i] + radii[j]), (nums[i] - nums[k], radii[i] + radii[k])


def _one_cell(n: int, s: int, t: int, precision_bits: int):
    """The triple of (n, s, t) alone at proof_precision bits, as orbit_triples
    plans it for pairs [(s, t)] (compute_alphas is that one-cell plan, cached);
    DegenerateTwist at (s, t) = (0, 0)."""
    check_twist(s, t)
    return compute_alphas(n, s, t, proof_precision(n, precision_bits))


def _cell_logs(tri, shift: int):
    """The logs and signed differences (l12, l13, d12, d13), as (numerator, radius)
    pairs over 2^K, of the cell whose conjugates are tri's from index shift on;
    None where a difference is not known to be nonzero (AlphaTriple.diff_log)."""
    logs = tri.diff_log(shift, (shift + 1) % 3), tri.diff_log(shift, (shift + 2) % 3)
    return None if None in logs else (*logs, *_ordered_diffs(tri, shift))


@dataclass(frozen=True)
class ProofQuantities:
    """The six 2x2 determinants of the unit-exponent system plus derived scalars.

    u_bar = -u1 - u2, w_bar = -w1 - w2, and b0 is the unique integer placing
    v_bar = b0*R - v1 - v2 inside the window (0, R).

    The fields ending in _num are the quantities in fixed point: integers
    over 2^frac_bits (diff12_num and diff13_num are the signed differences
    alpha1 - alpha2 and alpha1 - alpha3), and every field is an integer: a
    reader that wants a float rounds a numerator over 2^frac_bits with
    bounds.ratio_float.  w_bar enters the proof only through the
    absorption ratio |w_bar| / (2 |d12| |d13|), which absorb_ratio gives as
    a quotient of integers: bounds._absorbed decides the absorption on its
    integers for both bounds._chain and asymptotics.run_wbar, which reports it.
    """

    n: int
    s: int
    t: int
    frac_bits: int
    b0: int
    u1_num: int
    u2_num: int
    v1_num: int
    v2_num: int
    v_bar_num: int
    regulator_num: int
    diff12_num: int
    diff13_num: int

    @property
    def u_bar_num(self) -> int:
        return -self.u1_num - self.u2_num

    def absorb_ratio(self):
        """|w_bar| / (2 |d12| |d13|) as (numerator, denominator), integers.

        |w_bar| = |u1 d13 + u2 d12| / |d12 d13|, so over 2^K the ratio is
        |U1 D13 + U2 D12| 2^(2K) / (2 (D12 D13)^2).
        """
        w = abs(self.u1_num * self.diff13_num + self.u2_num * self.diff12_num)
        return w << 2 * self.frac_bits, 2 * (self.diff12_num * self.diff13_num) ** 2


def log_system(rs, l2, l3):
    """det e1, det e2 and their summed radius over 2^K, by Cramer's rule, for the
    system l2 = e1 g1 + e2 g2, l3 = e1 g2 + e2 g0 in the root logs g of rs, which
    log|beta'| and log|beta''| solve for a unit beta = +-lam0^e1 lam1^e2;
    det = g1 g0 - g2^2 = -R, as g0 > 0 > g1."""
    K = rs.frac_bits
    g0, g1, g2 = rs.log_fixed
    p1, p2 = fixed_mul(l2, g0, K), fixed_mul(g2, l3, K)
    p3, p4 = fixed_mul(g1, l3, K), fixed_mul(l2, g2, K)
    return p1[0] - p2[0], p3[0] - p4[0], p1[1] + p2[1] + p3[1] + p4[1]


def _quantities(tri, shift: int, s: int, t: int):
    """ProofQuantities of the cell (s, t) whose conjugates are those of tri from
    index shift on, or None where the radii leave a difference's sign (see
    _cell_logs) or b0 undecided.

    v1 + v2 = V and R are known as integers over 2^K with radii r_V and r_R.
    With m = floor(V / R) and rem = V - m R, the true value of v1 + v2 lies
    strictly between m R and (m + 1) R, for the true R, when

        rem > r_V + |m| r_R    and    R - rem > r_V + |m + 1| r_R.

    Then b0 = m + 1 and v_bar = R - rem lies in (0, R).
    """
    got = _cell_logs(tri, shift)
    if got is None:
        return None
    l12, l13, d12, d13 = got
    rs = tri.roots
    v1, v2, r_v = log_system(rs, l12, l13)
    reg, r_reg = rs.reg_fixed
    m, rem = divmod(v1 + v2, reg)
    if rem <= r_v + abs(m) * r_reg or reg - rem <= r_v + abs(m + 1) * r_reg:
        return None
    (g0, _), (g1, _), (g2, _) = rs.log_fixed
    return ProofQuantities(tri.n, s, t, tri.frac_bits, m + 1,
                           g0 - g2, g1 - g2, v1, v2, reg - rem, reg, d12[0], d13[0])


def cell_quantities(tri, shift: int, s: int, t: int):
    """The proof quantities of a cell of tri's orbit (see _quantities), with b0 certified.

    Where the radii leave a difference's sign or b0 undecided, the cell
    escalates from tri over roots.attempts(tri) (see "Precision" in roots.py).
    """
    return escalate(lambda: f"b0 for (n,s,t)={(tri.n, s, t)}", attempts(tri),
                    lambda cur: _quantities(cur, shift, s, t))


def compute_proof_quantities(n: int, s: int, t: int, precision_bits: int = 192) -> ProofQuantities:
    """The proof quantities of (n, s, t), with b0 and the window certified:
    cell_quantities on the one-cell triple, at proof_precision(n, precision_bits)
    bits."""
    return cell_quantities(_one_cell(n, s, t, precision_bits), 0, s, t)

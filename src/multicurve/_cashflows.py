"""The leg formulas every rate instrument is built from.

In the dual-curve setting a bootstrap quote, a priced position and a
curve's own forward view all reduce to three pieces, read off discount
factors already looked up on the forwarding curve (P_f) and on the
discounting curve (P_d):

* the simple forward (P_f(T1) - P_f(T2)) / (tau P_f(T2));
* the floating leg sum_i P_d(t_i) (P_f(t_{i-1}) / P_f(t_i) - 1), whose
  accrual-times-rate product is the forwarding discount ratio minus one:
  day-count free, and telescoping exactly when the two curves coincide;
* the annuity sum_i tau_i P_d(t_i).

They are written here once, as pure numpy arithmetic on those arrays;
``bootstrap``, ``pricer``, ``curve`` and ``basis`` call them and write
none of them out themselves.  Each sum is one ``np.dot``.  The floating
leg's reverse pass, its derivative in the log of every discount factor
it reads (``float_leg_log_gradient``, scattering through
``ratio_log_gradient``), is written here too; the pricer's book
gradient reads it, and its caplets reuse the ratio scatter.

``LegTable`` batches them for a set of quotes: rows of money-market
forwards, float legs, overnight legs and annuities over slices of
per-curve batches, priced together (``fairs``, ``weights``) and
differentiated together in one reverse pass (``log_gradient``).  That
pass scatters the same coupon terms as ``float_leg_log_gradient`` but
through index arrays over every row at once, since a table's legs sit
at arbitrary slices of shared batches rather than on one contiguous
schedule; sealing a table builds those arrays in one pass (``spans``).
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

__all__ = [
    "simple_forward",
    "coupons",
    "float_leg",
    "float_legs",
    "float_leg_log_gradient",
    "ratio_log_gradient",
    "annuity",
    "annuities",
    "spans",
    "LegTable",
]


def simple_forward(p1, p2, tau):
    """Simple forward rate over [T1, T2] from P_f(T1), P_f(T2) and the
    accrual ``tau``; scalars or arrays, element by element."""
    return (p1 - p2) / (tau * p2)


def coupons(p_f: np.ndarray) -> np.ndarray:
    """Forwarding discount ratio minus one, P_f(t_{i-1}) / P_f(t_i) - 1,
    over consecutive entries of ``p_f``: each period's accrual times its
    simple forward rate."""
    return p_f[:-1] / p_f[1:] - 1.0


def float_leg(p_d: np.ndarray, p_f: np.ndarray, qa: np.ndarray | None = None) -> float:
    """PV of a floating leg per unit notional.

    ``p_f`` holds the forwarding discount factors at the n + 1 schedule
    dates and ``p_d`` the discounting ones at the n payment dates; ``qa``
    multiplies each coupon by its forward adjustment.
    """
    c = coupons(p_f)
    if qa is not None:
        c = c * qa
    return float(np.dot(p_d, c))


def float_leg_log_gradient(
    p_d: np.ndarray, p_f: np.ndarray, qa: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """d ``float_leg``/d ln P at each of its reads: (at the n payment
    reads, at the n + 1 schedule reads).  Coupon i, c_i = P_f(t_{i-1})
    / P_f(t_i) - 1 paid at P_d(t_i) and scaled by qa_i, gives
    P_d qa c_i at its payment read and +-P_d qa (1 + c_i) at t_{i-1}
    and t_i."""
    ratio = p_f[:-1] / p_f[1:]
    pay = p_d if qa is None else p_d * qa
    return pay * (ratio - 1.0), ratio_log_gradient(pay * ratio)


def ratio_log_gradient(x: np.ndarray) -> np.ndarray:
    """d/d ln P_f at the n + 1 schedule reads of a value whose
    derivative in the log of each forwarding ratio P_f(t_{i-1}) / P_f(t_i)
    is ``x[i]``: +x[i] at t_{i-1} and -x[i] at t_i.  Every coupon-based
    leg, whatever its payoff, reaches its forwarding reads through it."""
    at_f = np.zeros(len(x) + 1)
    at_f[:-1] = x
    at_f[1:] -= x
    return at_f


def float_legs(p_d: np.ndarray, p_f: np.ndarray, legs) -> list[float]:
    """``float_leg`` of several unadjusted legs read off two batches:
    each (payment, coupon) slice pair in ``legs`` picks one leg's
    discounting factors from ``p_d`` and its coupons from
    ``coupons(p_f)``, whose coupon i projects off ``p_f[i]`` and
    ``p_f[i + 1]``."""
    c = coupons(p_f)
    return [float(np.dot(p_d[d], c[k])) for d, k in legs]


def annuity(taus: np.ndarray, p_d: np.ndarray) -> float:
    """Sum of the accruals ``taus`` discounted at their payment dates."""
    return float(np.dot(taus, p_d))


def annuities(legs, p_d: np.ndarray) -> list[float]:
    """``annuity`` of several legs read off one batch: each (accruals,
    payment slice) pair in ``legs`` is one leg."""
    return [float(np.dot(taus, p_d[d])) for taus, d in legs]


def spans(starts: list[int], sizes: list[int]) -> np.ndarray:
    """The positions covered by runs of ``sizes`` beginning at ``starts``,
    run after run: the index array of many slices, built in one pass."""
    shift = [a - b for a, b in zip(starts, accumulate(sizes, initial=0))]
    index = np.array(shift, dtype=np.intp).repeat(sizes)
    index += np.arange(index.size)
    return index


class LegTable:
    """The rows a quote set compiles to, as one table.

    Every row holds the index of its quote and the positions of the
    reads it makes in the batches of discount factors, each batch keyed
    by its curve:

    * money market: the pair (T1, T2) on the curve keyed ``own``, the
      payment read P_d(T2) and the accrual tau;
    * float leg: a sign (-1 for the short leg of a basis swap), the key
      of the curve projecting it, its n payment reads on the
      discounting curve and its n + 1 schedule reads on that curve;
    * OIS: the discounting pair (start, end) its overnight leg
      telescopes to;
    * annuity: the accruals and payment reads of a swap-type quote's
      fixed or spread leg, one per such quote.

    Rows come in groups: ``q`` holds the quotes of a group and each read
    is given by its position in its batch; ``seal`` turns the rows into
    index arrays.

    ``fairs`` prices every row at once: the money-market rows as one
    array of simple forwards, each leg and annuity as one ``np.dot``
    over its slices (``float_legs``, ``annuities``), and each swap-type
    quote as its signed leg and OIS rows over its annuity.
    ``log_gradient`` differentiates all rows in one batched pass.
    """

    def __init__(self, own):
        self.own = own
        self.n = 0
        self.rows: dict[str, list] = {"mm": [], "leg": [], "ois": [], "ann": []}

    # -- compiling ----------------------------------------------------------

    def money_market(self, q, f, d, tau) -> None:
        """T1 at ``f`` and T2 at ``f + 1`` on ``own``, P_d(T2) at ``d``."""
        self.rows["mm"].append((q, f, d, tau))

    def float_leg(self, q, sign: float, proj, d, f, n) -> None:
        """``n`` coupons paid at ``d`` onwards, projected off the ``proj``
        batch's n + 1 schedule reads from ``f``."""
        self.rows["leg"].append((q, sign, proj, d, f, n))

    def ois(self, q, s) -> None:
        """P_d(start) at ``s`` and P_d(end) at ``s + 1``."""
        self.rows["ois"].append((q, s))

    def annuity(self, q, d, taus: list[np.ndarray]) -> None:
        """Each quote's accruals ``taus``, paid at ``d`` onwards."""
        self.rows["ann"].append((q, d, taus))

    def seal(self, disc, n: int) -> None:
        """Turn the rows of a set of ``n`` quotes into the index arrays
        the evaluation reads; ``disc`` is the key of the discounting
        batch."""
        self.disc, self.n = disc, n
        mm = [row for q, f, d, tau in self.rows["mm"] for row in zip(q, f, d, tau)]
        q, f, d, tau = zip(*mm) if mm else ((),) * 4
        self.mm_q, self.mm_f, self.mm_d = (np.array(x, dtype=np.intp) for x in (q, f, d))
        self.mm_f1 = self.mm_f + 1
        self.mm_tau = np.array(tau, dtype=float)
        # swap-type quotes: one annuity each, k numbering them
        ann = [row for q, d, taus in self.rows["ann"] for row in zip(q, d, taus)]
        k_of = {i: k for k, (i, _, _) in enumerate(ann)}
        self.ann_q = np.array(list(k_of), dtype=np.intp)
        self.ann_tau = np.concatenate([taus for _, _, taus in ann] or [()])
        first = [d for _, d, _ in ann]
        sizes = [len(taus) for _, _, taus in ann]
        self.ann_k = np.arange(len(ann)).repeat(sizes)
        self.ann = [
            (taus, slice(d, d + size)) for (_, d, taus), size in zip(ann, sizes)
        ]
        # float legs grouped by projecting curve: (k, sign, payment read,
        # schedule read, coupons) each
        groups: dict = {}
        for q, sign, proj, d, f, n in self.rows["leg"]:
            groups.setdefault(proj, []).extend(
                (k_of[i], sign, d, f, n) for i, d, f, n in zip(q, d, f, n)
            )
        legs = [leg for rows in groups.values() for leg in rows]
        k, sign, d, f, n = zip(*legs) if legs else ((),) * 5
        # every run of reads the evaluation gathers, in one pass: the
        # annuities' payment reads, then coupon i of each leg paying at its
        # payment read i and projecting off its schedule reads i, i + 1
        runs = spans(first + list(d) + list(f), sizes + list(n) * 2)
        m, c = len(self.ann_k), sum(n)
        self.ann_d, cd, cf = runs[:m], runs[m:m + c], runs[m + c:]
        n_array = np.array(n, dtype=np.intp)
        ck = np.array(k, dtype=np.intp).repeat(n_array)
        cs = np.array(sign, dtype=float).repeat(n_array)
        ends = list(accumulate(n, initial=0))
        self.groups, self.coupons, leg = {}, {}, 0
        for key, rows in groups.items():
            self.groups[key] = [
                (slice(d, d + n), slice(f, f + n)) for _, _, d, f, n in rows
            ]
            a, b = ends[leg], ends[leg + len(rows)]
            leg += len(rows)
            # per coupon: its schedule reads, payment read, annuity and sign
            self.coupons[key] = (cf[a:b], cf[a:b] + 1, cd[a:b], ck[a:b], cs[a:b])
        ois = [(k_of[i], s) for q, s in self.rows["ois"] for i, s in zip(q, s)]
        ois_k, s = zip(*ois) if ois else ((), ())
        self.ois_k = np.array(ois_k, dtype=np.intp)
        self.ois_s = np.array(s, dtype=np.intp)
        self.ois_s1 = self.ois_s + 1
        # a quote's leg and OIS rows in row order, as fairs sums them
        self.row_k = np.array(k + ois_k, dtype=np.intp)
        self.row_sign = np.array(sign + (1.0,) * len(ois))
        del self.rows

    # -- evaluation ---------------------------------------------------------

    def fairs(self, p: dict) -> np.ndarray:
        """Every quote's fair value in rate space on the batches ``p``;
        raises ``ZeroDivisionError`` where an annuity is zero."""
        fair = np.empty(self.n)
        if self.mm_q.size:
            own = p[self.own]
            fair[self.mm_q] = simple_forward(
                own[self.mm_f], own[self.mm_f1], self.mm_tau
            )
        if self.ann:
            p_d = p[self.disc]
            rows = [float_legs(p_d, p[k], legs) for k, legs in self.groups.items()]
            if self.ois_s.size:
                rows.append(p_d[self.ois_s] - p_d[self.ois_s1])
            # a quote's rows summed in row order onto 0, then divided as
            # Python floats: a zero annuity raises, an overflow gives inf
            numerators = np.bincount(
                self.row_k, np.concatenate(rows) * self.row_sign, len(self.ann)
            )
            a = annuities(self.ann, p_d)
            fair[self.ann_q] = [n / x for n, x in zip(numerators.tolist(), a)]
        return fair

    def weights(self, p: dict) -> np.ndarray:
        """Every quote's PV per unit notional of a unit move in its fair
        value: P_d(end) * tau for money-market quotes, the annuity for
        the others."""
        w = np.empty(self.n)
        if self.mm_q.size:
            w[self.mm_q] = p[self.disc][self.mm_d] * self.mm_tau
        if self.ann:
            w[self.ann_q] = annuities(self.ann, p[self.disc])
        return w

    def log_gradient(self, p: dict, key) -> np.ndarray:
        """dR/d ln P at every read of the ``key`` batch, R being the
        residual of the quote that made the read, on the batches ``p``.

        One vectorised pass over all rows, with no call per quote:
        money-market pairs give +-P1 / (tau P2); a coupon
        c = P_f(t_{i-1}) / P_f(t_i) - 1 paid at P_d(t_i) gives
        P_d (1 + c) at t_{i-1}, -P_d (1 + c) at t_i and P_d c at the
        payment, scaled by its leg's sign over the annuity A; an OIS
        leg gives +-P_d / A; and each annuity read -(fair / A) tau P_d.
        """
        idx, val = [], []
        if self.mm_q.size and key == self.own:
            own, f, f1 = p[key], self.mm_f, self.mm_f1
            x = own[f] / (self.mm_tau * own[f1])
            idx += [f, f1]
            val += [x, -x]
        if self.ann:
            # the annuity and OIS rows read the discounting batch alone
            disc, m = self.disc, len(self.ann)
            p_d = p[disc]
            ann_pv = np.bincount(self.ann_k, self.ann_tau * p_d[self.ann_d], m)
            numerators = np.zeros(m)
            for gkey, (cf, cf1, cd, k, sign) in self.coupons.items():
                if gkey != key and disc != key:
                    continue
                p_f = p[gkey]
                ratio = p_f[cf] / p_f[cf1]
                pay = sign * p_d[cd]
                coupon = pay * (ratio - 1.0)
                scale = 1.0 / ann_pv[k]
                if gkey == key:
                    pay *= ratio * scale
                    idx += [cf, cf1]
                    val += [pay, -pay]
                if disc == key:
                    numerators += np.bincount(k, coupon, m)
                    idx.append(cd)
                    val.append(coupon * scale)
            if disc == key:
                s, s1 = self.ois_s, self.ois_s1
                p1, p2 = p_d[s], p_d[s1]
                numerators += np.bincount(self.ois_k, p1 - p2, m)
                a = ann_pv[self.ois_k]
                fair = numerators / ann_pv
                idx += [s, s1, self.ann_d]
                val += [
                    p1 / a,
                    -p2 / a,
                    -(fair / ann_pv)[self.ann_k] * self.ann_tau * p_d[self.ann_d],
                ]
        if not idx:
            return np.zeros(len(p[key]))
        return np.bincount(np.concatenate(idx), np.concatenate(val), len(p[key]))

"""The law checks of semirings, semimodules and MV-algebras as they were
written before every law was read through the shared kernels of
mvsr.semiring: a Python loop per row for each distributive law, the
blocked associativity scan, the module's two inline block loops, its
action-zero block and the exchange law's double loop. They are the
oracles of check_semiring_axioms, check_semimodule and check_mv_axioms,
which must report the same bytes, witnesses included. The (a, b) loops
of the semiring and MV hom checks are the oracles of SemiringHom and
MvHom.validate, which must raise the same message."""
import numpy as np

from mvsr import semiring
from mvsr.semiring import (_SEMIRING_LAWS, AxiomReport, LawCheck,
                           _first_identity_failure, _first_true,
                           is_additively_idempotent)


def assoc_by_blocks(t):
    n = len(t)
    step = max(1, semiring._CHUNK_ELEMENTS // max(1, n * n))
    for lo in range(0, n, step):
        rows = t[lo:lo + step]
        bad = _first_true(t[rows] != rows[:, t])
        if bad:
            return (lo + bad[0],) + bad[1:]
    return None


def comm_by_transpose(t):
    return _first_true(t != t.T)


def left_dist_by_loop(add, mul):
    n = len(add)
    for a in range(n):
        row = mul[a]
        lhs = row[add]                      # a*(b+c)
        rhs = add[np.ix_(row, row)]         # a*b + a*c
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return (a, int(b), int(c))
    return None


def right_dist_by_loop(add, mul):
    n = len(add)
    for c in range(n):
        col = mul[:, c]
        lhs = col[add]                      # (a+b)*c
        rhs = add[np.ix_(col, col)]         # a*c + b*c
        if not np.array_equal(lhs, rhs):
            a, b = np.argwhere(lhs != rhs)[0]
            return (int(a), int(b), c)
    return None


def absorb_by_loop(mul, zero):
    x = next((x for x, v in enumerate(mul[zero]) if v != zero), None)
    if x is not None:
        return (zero, x)
    x = next((x for x, row in enumerate(mul) if row[zero] != zero), None)
    return None if x is None else (x, zero)


def _report(structure, checks):
    return AxiomReport(structure, tuple(LawCheck(name, w is None, w)
                                        for name, w in checks)).to_dict()


def semiring_report_by_loops(s):
    add, mul = s.np_add, s.np_mul
    witnesses = (assoc_by_blocks(add), comm_by_transpose(add),
                 _first_identity_failure(s.add, s.zero),
                 assoc_by_blocks(mul),
                 _first_identity_failure(s.mul, s.one),
                 left_dist_by_loop(add, mul),
                 right_dist_by_loop(add, mul),
                 absorb_by_loop(s.mul, s.zero))
    return _report("semiring", zip(_SEMIRING_LAWS, witnesses))


def _module_witnesses_by_loops(s, m):
    add, act = m.np_add, m.np_action
    sadd, smul = s.np_add, s.np_mul
    yield "add-associative", assoc_by_blocks(add)
    yield "add-commutative", comm_by_transpose(add)
    yield "add-identity", _first_identity_failure(m.add, m.zero)

    w = None
    step = max(1, semiring._CHUNK_ELEMENTS // (s.size * m.size))
    for lo in range(0, s.size, step):
        # a(bx) against (ab)x, one row per b
        w = _first_true(act[lo:lo + step][:, act] != act[smul[lo:lo + step]])
        if w:
            w = (lo + w[0],) + w[1:]
            break
    yield "action-associative", w

    w = None
    step = max(1, semiring._CHUNK_ELEMENTS // (m.size * m.size))
    for lo in range(0, s.size, step):
        rows = act[lo:lo + step]
        # a(x+y) against ax + ay
        w = _first_true(rows[:, add] != add[rows[:, :, None],
                                            rows[:, None, :]])
        if w:
            w = (lo + w[0],) + w[1:]
            break
    yield "action-additive", w

    yield "scalar-additive", _first_true(
        act[sadd] != add[act[:, None, :], act[None, :, :]])

    one, zero = m.action[s.one], m.zero
    yield "action-unital", next(((x,) for x, v in enumerate(one) if v != x),
                                None)
    x = next((x for x, v in enumerate(m.action[s.zero]) if v != zero), None)
    if x is not None:
        w = (s.zero, x)
    else:
        a = next((a for a, row in enumerate(m.action) if row[zero] != zero),
                 None)
        w = None if a is None else (a, zero)
    yield "action-zero", w

    if is_additively_idempotent(s):
        yield "add-idempotent", next(((x,) for x, row in enumerate(m.add)
                                      if row[x] != x), None)


def module_report_by_loops(s, m):
    return _report("semimodule", _module_witnesses_by_loops(s, m))


def mv_report_by_loops(a):
    t = np.array(a.oplus, dtype=np.int64)
    checks = [
        ("oplus-associative", assoc_by_blocks(t)),
        ("oplus-commutative", comm_by_transpose(t)),
        ("oplus-identity", _first_identity_failure(a.oplus, a.zero)),
    ]
    inv = next(((x,) for x in range(a.size) if a.star[a.star[x]] != x), None)
    checks.append(("involution", inv))
    one = a.one
    top = next(((x,) for x in range(a.size) if a.oplus[x][one] != one), None)
    checks.append(("top-absorbing", top))
    exch = None
    for x in range(a.size):
        for y in range(a.size):
            lhs = a.oplus[a.star[a.oplus[a.star[x]][y]]][y]
            rhs = a.oplus[a.star[a.oplus[a.star[y]][x]]][x]
            if lhs != rhs:
                exch = (x, y)
                break
        if exch:
            break
    checks.append(("exchange", exch))
    return _report("mv-algebra", checks)


def semiring_hom_broken_by_loop(h):
    """The message of the first law the semiring map h breaks, or None."""
    s, t, m = h.source, h.target, h.mapping
    if m[s.zero] != t.zero:
        return "zero not preserved"
    if m[s.one] != t.one:
        return "one not preserved"
    for a in range(s.size):
        for b in range(s.size):
            if m[s.add[a][b]] != t.add[m[a]][m[b]]:
                return f"addition not preserved at ({a}, {b})"
            if m[s.mul[a][b]] != t.mul[m[a]][m[b]]:
                return f"multiplication not preserved at ({a}, {b})"
    return None


def mv_hom_broken_by_loop(h):
    """The message of the first law the MV map h breaks, or None."""
    s, t, m = h.source, h.target, h.mapping
    if m[s.zero] != t.zero:
        return "zero not preserved"
    for x in range(s.size):
        if m[s.star[x]] != t.star[m[x]]:
            return f"involution not preserved at {x}"
        for y in range(s.size):
            if m[s.oplus[x][y]] != t.oplus[m[x]][m[y]]:
                return f"sum not preserved at ({x}, {y})"
    return None


def module_hom_broken_by_loop(h):
    """The message of the first law the module map h breaks, or None."""
    m, n, img = h.source, h.target, h.mapping
    if img[m.zero] != n.zero:
        return "zero not preserved"
    for x in range(m.size):
        for y in range(m.size):
            if img[m.add[x][y]] != n.add[img[x]][img[y]]:
                return f"addition not preserved at ({x}, {y})"
    for a in range(m.scalars.size):
        for x in range(m.size):
            if img[m.action[a][x]] != n.action[a][img[x]]:
                return f"action not preserved at ({a}, {x})"
    return None

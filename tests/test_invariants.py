"""Cross-cutting engine invariants on catalog systems."""

import ast
import pathlib
import random
from collections import Counter
from fractions import Fraction

import wcoset
from wcoset import catalog as cat
from wcoset.fields import gen, mode_apply, ope_singular, parity, weight
from wcoset.fock import enumerate_basis
from wcoset.screening import residue_map


def test_mode_apply_respects_grading():
    rng = random.Random(21)
    spec = cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3))
    sys = spec.system
    exprs = list(spec.generator_map.values()) + [spec.conformal]
    for _ in range(40):
        d = rng.randint(0, 3)
        basis = enumerate_basis(sys, sys.zero_momentum(), d)
        s = basis[rng.randrange(len(basis))]
        e = exprs[rng.randrange(len(exprs))]
        n = rng.randint(-2, 3)
        w = weight(sys, e, s.momentum)
        out = mode_apply(sys, e, n, s)
        for t in out:
            assert sys.state_degree(t) == d + w - n - 1


def test_skew_symmetry_on_catalog_generators():
    """a_(0)b = -(-1)^{p(a)p(b)} b_(0)a modulo translates, on weight-1 pairs."""
    specs = [cat.gl11_wakimoto(Fraction(7, 2), Fraction(1, 3)),
             cat.subregular_realization("so", 2, Fraction(-19, 7), "miura"),
             cat.principal_super_realization("sl", 2, Fraction(3), "miura")]
    for spec in specs:
        sys = spec.system
        names = [sp.name for sp in sys.species]
        for an in names:
            for bn in names:
                a, b = gen(an), gen(bn)
                pab = ope_singular(sys, a, b)
                pba = ope_singular(sys, b, a)
                sgn = -(-1) ** (parity(sys, a) * parity(sys, b))
                # free generators: pole-1 states carry no derivative corrections
                assert pab.get(1, {}) == {k: sgn * v for k, v in pba.get(1, {}).items()}
                assert pab.get(2, {}) == pba.get(2, {})


def test_conformal_field_virasoro_ope():
    """T(z)T(w): central charge 0, pole 2 = 2T, pole 1 = dT; currents primary."""
    from wcoset.fields import deriv, lc_scale, state_of_field
    from wcoset.scalars import T as tvar
    spec = cat.gl11_wakimoto(tvar, Fraction(1, 3))
    sys = spec.system
    tt = spec.conformal
    poles = ope_singular(sys, tt, tt)
    t_state = state_of_field(sys, tt)
    dt_state = state_of_field(sys, deriv(tt))
    assert 4 not in poles and 3 not in poles  # c = 0, no cubic pole
    assert poles.get(2, {}) == lc_scale(t_state, Fraction(2))
    assert poles.get(1, {}) == dt_state
    for name, img in spec.generator_map.items():
        jp = ope_singular(sys, tt, img)
        assert set(jp) <= {1, 2}, name
        assert jp.get(2, {}) == state_of_field(sys, img), name
        assert jp.get(1, {}) == state_of_field(sys, deriv(img)), name


def test_screening_degree_shift_bookkeeping():
    spec = cat.subregular_realization("sl", 2, Fraction(-14, 5), "coset")
    for op in spec.screenings:
        gm = residue_map(op, range(3))
        assert gm.degree_shift == -1
        for d in range(3):
            tgt = enumerate_basis(spec.system, op.target(), d - 1)
            assert len(gm.blocks[d]) == len(tgt)


def unread_parameters(package_dir):
    """(module, function, parameter) of every parameter, self aside, that its
    function's body never reads, over the package's modules."""
    found = set()
    for path in sorted(pathlib.Path(package_dir).glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            read = {node.id for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Name)}
            a = fn.args
            found |= {(path.stem, getattr(fn, "name", "<lambda>"), p.arg)
                      for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if p is not None and p.arg != "self" and p.arg not in read}
    return found


def test_every_parameter_is_read():
    """No function takes a parameter it never reads.  fock.graded_dimension
    keeps its mu while the benchmark harness still passes it."""
    found = unread_parameters(pathlib.Path(wcoset.__file__).parent)
    assert found <= {("fock", "graded_dimension", "mu")}, sorted(found)


def _named(node):
    """How often each name is read under node, as a variable or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def uncalled_functions(package_dir):
    """(module or class, name) of every function and method, dunders aside,
    whose name the package's modules read nowhere outside its own body; an
    import does not count as a read."""
    trees = [(p.stem, ast.parse(p.read_text()))
             for p in sorted(pathlib.Path(package_dir).glob("*.py"))]
    named = sum((_named(tree) for _, tree in trees), Counter())
    found = set()
    scopes = list(trees)
    while scopes:
        owner, node = scopes.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                scopes.append((child.name, child))
                continue
            scopes.append((owner, child))
            if (isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not child.name.startswith("__")
                    and named[child.name] == _named(child)[child.name]):
                found.add((owner, child.name))
    return found


def test_every_function_is_called():
    """No function or method goes unnamed outside its own body, but these."""
    kept = {
        ("fields", "ope_singular"): "public API, exported by the package",
        ("fock", "enumerate_basis"): "the benchmark harness traces and calls it",
        ("System", "lattice_momentum"): "ROADMAP item 5 re-sources screenings by it",
        ("linalg", "rank"): "only the benchmark harness and tests call it (ROADMAP item 1)",
        ("linalg", "kernel_basis"): "only the benchmark harness and tests call it (ROADMAP item 1)",
        ("linalg", "mat_mul"): "only the benchmark harness and tests call it (ROADMAP item 1)",
    }
    found = uncalled_functions(pathlib.Path(wcoset.__file__).parent)
    assert found <= set(kept), sorted(found - set(kept))

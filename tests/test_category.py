"""Morphisms, the multiplicative tensor product, and its proved laws."""

import random

import pytest

from polymf3 import (
    MF2,
    MF3,
    DimensionError,
    Factorization,
    Morphism,
    Morphism3,
    MorphismError,
    RatMatrix,
    VarContext,
    commutativity_witness,
    perfect_shuffle,
    promote,
    tensor3,
    tensor3_morphism,
    violated_equation,
)
from polymf3.laws import random_mf3, random_scalar_endomorphism


@pytest.fixture
def ctx():
    return VarContext("x y z")


@pytest.fixture
def triple_f(ctx):
    x, y, _ = ctx.gens()
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        x**2 + y**2,
    )
    return promote(pair, "first", "doolittle")


@pytest.fixture
def triple_g(ctx):
    x, y, z = ctx.gens()
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x * y, -z], [x**2, z]]),
        RatMatrix.from_rows(ctx, [[z, z], [-(x**2), x * y]]),
        x * y * z + z * x**2,
    )
    return promote(pair, "first", "doolittle")


def test_each_declared_name_is_a_read_only_accessor(ctx, triple_f):
    x, y, _ = ctx.gens()
    pair = MF2(RatMatrix.from_rows(ctx, [[x]]), RatMatrix.from_rows(ctx, [[y]]), x * y)
    for obj, name in ((pair, "P"), (triple_f, "A2"), (Morphism3.identity(triple_f), "delta")):
        assert [getattr(obj, n) for n in type(obj).names] == list(obj.components)
        with pytest.raises(AttributeError):
            setattr(obj, name, obj.components[0])
    for base in (Factorization, Morphism):
        assert base.names == ()
        assert not any(hasattr(base, n) for n in MF2.names + MF3.names + Morphism3.names)


def test_identity_morphism_accepted(triple_f):
    ident = Morphism3.identity(triple_f)
    assert ident.alpha == RatMatrix.identity(triple_f.context, 2)
    assert violated_equation(*ident.components, triple_f, triple_f) is None


def test_zero_morphism_accepted(triple_f, triple_g, ctx):
    x, y, _ = ctx.gens()
    f = x**2 + y**2
    one = RatMatrix.identity(ctx, 1)
    small = MF3(one, one, RatMatrix.scalar(ctx, 1, f), f)
    zero = RatMatrix.zeros(ctx, 2, 1)
    m = Morphism3(small, triple_f, zero, zero, zero)
    assert m.source is small and m.target is triple_f


def test_perturbed_morphism_rejected(triple_f, ctx):
    x, _, _ = ctx.gens()
    i = RatMatrix.identity(ctx, 2)
    bumped = RatMatrix.from_rows(ctx, [[1, x], [0, 1]])
    with pytest.raises(MorphismError) as err:
        Morphism3(triple_f, triple_f, bumped, i, i)
    assert "alpha*phi1 = phi2*beta" in str(err.value)


def _bumped(k):
    """Identity endomorphism of triple_f with component k bumped off the diagonal."""

    def build(triple_f, ctx):
        components = [RatMatrix.identity(ctx, 2)] * 3
        components[k] = RatMatrix.from_rows(ctx, [[1, ctx.gens()[0]], [0, 1]])
        return (triple_f, triple_f, *components)

    return build


def _zero_target(triple_f, ctx):
    # for f != 0 the first two squares imply the third, so only f = 0 reaches it
    one, two = RatMatrix.identity(ctx, 1), RatMatrix.scalar(ctx, 1, 2)
    x = ctx.gens()[0]
    X = MF3(RatMatrix.zeros(ctx, 1, 1), one, one, x - x)
    return X, X, one, two, two


@pytest.mark.parametrize(
    "build, text",
    [
        (_bumped(0), "morphism equation alpha*phi1 = phi2*beta fails at entry [0][0]"),
        (_bumped(2), "morphism equation psi2*delta = beta*psi1 fails at entry [0][1]"),
        (_zero_target, "morphism equation delta*theta1 = theta2*alpha fails at entry [0][0]"),
    ],
    ids=["alpha", "delta", "zero-target"],
)
def test_each_violated_square_is_named(triple_f, ctx, build, text):
    with pytest.raises(MorphismError) as err:
        Morphism3(*build(triple_f, ctx))
    assert str(err.value) == text


def test_mf2_morphisms_follow_the_same_rule(triple_f, ctx):
    x, y, _ = ctx.gens()
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        x**2 + y**2,
    )
    two = RatMatrix.scalar(ctx, 2, 2)
    double = Morphism(pair, pair, two, two)
    assert Morphism.identity(pair) @ double == double
    assert violated_equation(two, two, pair, pair) is None
    bumped = RatMatrix.from_rows(ctx, [[2, x], [0, 2]])
    with pytest.raises(MorphismError) as err:
        Morphism(pair, pair, two, bumped)
    assert str(err.value) == "morphism equation m0*C0 = C'0*m1 fails at entry [0][1]"
    with pytest.raises(DimensionError):
        Morphism(triple_f, triple_f, two, two)


def test_shape_mismatch_rejected(triple_f, ctx):
    bad = RatMatrix.identity(ctx, 3)
    with pytest.raises(DimensionError):
        Morphism3(triple_f, triple_f, bad, bad, bad)


def test_target_polynomial_mismatch(triple_f, triple_g):
    i = RatMatrix.identity(triple_f.context, 2)
    with pytest.raises(ValueError):
        Morphism3(triple_f, triple_g, i, i, i)


def test_compose_with_identity(triple_f):
    rng = random.Random(97)
    m = random_scalar_endomorphism(rng, triple_f)
    ident = Morphism3.identity(triple_f)
    assert ident.compose(m) == m
    assert m.compose(ident) == m
    assert ident.compose(ident) == ident


def test_compose_associative(triple_f):
    rng = random.Random(101)
    m1 = random_scalar_endomorphism(rng, triple_f)
    m2 = random_scalar_endomorphism(rng, triple_f)
    m3 = random_scalar_endomorphism(rng, triple_f)
    assert (m3 @ m2) @ m1 == m3 @ (m2 @ m1)


def test_compose_domain_mismatch(triple_f, ctx):
    x, y, _ = ctx.gens()
    f = x**2 + y**2
    one = RatMatrix.identity(ctx, 1)
    small = MF3(one, one, RatMatrix.scalar(ctx, 1, f), f)
    zero = RatMatrix.zeros(ctx, 2, 1)
    up = Morphism3(small, triple_f, zero, zero, zero)
    with pytest.raises(ValueError):
        up.compose(up)


def test_tensor_reproduces_worked_example(triple_f, triple_g, ctx):
    x, y, z = ctx.gens()
    t = tensor3(triple_f, triple_g)
    assert t.size == 4
    assert t.target == (x**2 + y**2) * (x * y * z + z * x**2)
    assert t.A1 == RatMatrix.from_rows(
        ctx,
        [
            [1, 0, 0, 0],
            [x / y, 1, 0, 0],
            [y / x, 0, 1, 0],
            [1, y / x, x / y, 1],
        ],
    )
    assert t.A2 == RatMatrix.from_rows(
        ctx,
        [
            [x**2 * y, -(x * z), -(x * y**2), y * z],
            [0, x * z + (z * x**2) / y, 0, -(z * y) - z * x],
            [0, 0, x**2 * y + y**3, -(z * x) - (z * y**2) / x],
            [0, 0, 0, x * z + (z * x**2) / y + (y**2 * z) / x + z * y],
        ],
    )
    assert t.A3 == RatMatrix.from_rows(
        ctx,
        [
            [x * z, x * z, y * z, y * z],
            [-(x**3), x**2 * y, -(x**2 * y), x * y**2],
            [-(y * z), -(y * z), x * z, x * z],
            [y * x**2, -(x * y**2), -(x**3), x**2 * y],
        ],
    )


def test_tensor_of_trivial_triples():
    cf = VarContext("x")
    cg = VarContext("y")
    (x,) = cf.gens()
    (y,) = cg.gens()
    f = x**2
    g = y**3
    tf = MF3(RatMatrix.identity(cf, 2), RatMatrix.identity(cf, 2), RatMatrix.scalar(cf, 2, f), f)
    tg = MF3(RatMatrix.identity(cg, 2), RatMatrix.identity(cg, 2), RatMatrix.scalar(cg, 2, g), g)
    t = tensor3(tf, tg)
    merged = t.context
    assert merged.names == ("x", "y")
    assert t.A1 == RatMatrix.identity(merged, 4)
    assert t.A3 == RatMatrix.scalar(merged, 4, t.target)


def test_tensor_scalars():
    cf = VarContext("x")
    cg = VarContext("y")
    (x,) = cf.gens()
    (y,) = cg.gens()
    a, b, c = x, x**2, x + 1
    d, e, h = y, y + 2, y**2
    X = MF3(*(RatMatrix.from_rows(cf, [[p]]) for p in (a, b, c)), a * b * c)
    Y = MF3(*(RatMatrix.from_rows(cg, [[p]]) for p in (d, e, h)), d * e * h)
    t = tensor3(X, Y)
    merged = t.context
    assert t.A1[0, 0] == (a.in_context(merged) * d.in_context(merged))
    assert t.target == (a * b * c).in_context(merged) * (d * e * h).in_context(merged)


def test_tensor_allows_shared_variables(triple_f, triple_g):
    # both factors live over overlapping variables; the certificate still holds
    t = tensor3(triple_f, triple_g)
    assert t.context == triple_f.context


def test_tensor_morphism_identity_axiom(triple_f, triple_g):
    t = tensor3(triple_f, triple_g)
    assert tensor3_morphism(
        Morphism3.identity(triple_f), Morphism3.identity(triple_g)
    ) == Morphism3.identity(t)


def test_tensor_morphism_scalars(triple_f, triple_g):
    ctx = triple_f.context
    two = RatMatrix.scalar(ctx, 2, 2)
    three = RatMatrix.scalar(ctx, 2, 3)
    mf = Morphism3(triple_f, triple_f, two, two, two)
    mg = Morphism3(triple_g, triple_g, three, three, three)
    t = tensor3_morphism(mf, mg)
    assert t.alpha == RatMatrix.scalar(ctx, 4, 6)


def test_tensor_morphism_composition_axiom():
    rng = random.Random(103)
    for _ in range(5):
        X = random_mf3(rng, VarContext("x1 x2"))
        Y = random_mf3(rng, VarContext("y1 y2"))
        f1 = random_scalar_endomorphism(rng, X)
        f2 = random_scalar_endomorphism(rng, X)
        g1 = random_scalar_endomorphism(rng, Y)
        g2 = random_scalar_endomorphism(rng, Y)
        assert tensor3_morphism(f2 @ f1, g2 @ g1) == tensor3_morphism(f2, g2) @ tensor3_morphism(f1, g1)


def test_commutativity_witness_scalar_case():
    cf = VarContext("x")
    cg = VarContext("y")
    (x,) = cf.gens()
    (y,) = cg.gens()
    X = MF3(*(RatMatrix.from_rows(cf, [[p]]) for p in (x, x, x)), x**3)
    Y = MF3(*(RatMatrix.from_rows(cg, [[p]]) for p in (y, y, y)), y**3)
    s = commutativity_witness(X, Y)
    assert s.size == 1 and s.is_identity


def test_commutativity_witness_paper_pair(triple_f, triple_g):
    s = commutativity_witness(triple_f, triple_g)
    assert s == perfect_shuffle(2, 2)
    xy = tensor3(triple_f, triple_g)
    yx = tensor3(triple_g, triple_f)
    sm = s.to_matrix(xy.context)
    st = sm.transpose()
    for a, b in zip(yx.components, xy.components):
        assert a.in_context(xy.context) == sm @ b @ st


def test_commutativity_witness_mixed_sizes():
    rng = random.Random(107)
    X = random_mf3(rng, VarContext("x1 x2"))
    Y = random_mf3(rng, VarContext("y1"))
    xy = tensor3(X, Y)
    yx = tensor3(Y, X)
    sm = commutativity_witness(X, Y).to_matrix(xy.context)
    st = sm.transpose()
    for a, b in zip(yx.components, xy.components):
        assert a.in_context(xy.context) == sm @ b @ st


def test_left_distributivity_exact():
    rng = random.Random(109)
    from polymf3.laws import random_target, random_mf3_of

    ctx_x = VarContext("x1 x2")
    f, splits = random_target(rng, ctx_x, 2)
    X1 = random_mf3_of(rng, f, splits)
    X2 = random_mf3_of(rng, f, splits)
    Xp = random_mf3(rng, VarContext("y1 y2"))
    lhs = tensor3(X1.direct_sum(X2), Xp)
    rhs = tensor3(X1, Xp).direct_sum(tensor3(X2, Xp))
    assert lhs.components == rhs.components
    assert lhs.target == rhs.target


def test_associativity_exact(triple_f):
    rng = random.Random(113)
    Y = random_mf3(rng, VarContext("u1 u2"))
    Z = random_mf3(rng, VarContext("v1"))
    lhs = tensor3(tensor3(triple_f, Y), Z)
    rhs = tensor3(triple_f, tensor3(Y, Z))
    assert lhs.components == rhs.components
    assert lhs.target == rhs.target

"""Independent oracles used to freeze expected values.

Everything here is deliberately self-contained: the Chevalley-Eilenberg rank
oracle builds differential matrices straight from structure constants with
its own sign bookkeeping and its own row reduction, the Euler-characteristic
oracle counts simplices, the groupoid Betti oracle builds the full cochain
complex, degenerate chains included, and the determinant expansion used
against the Pfaffian is a direct Leibniz sum.  None of it calls the library
paths it is used to check.  ``dense`` reads the library's sparse rows as the
dense lists these oracles work on.
"""

from fractions import Fraction
from itertools import combinations, permutations


def row_reduce_rank(matrix):
    """Rank over the rationals by plain Gaussian elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    n_cols = len(rows[0]) if rows else 0
    for col in range(n_cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = Fraction(1) / rows[rank][col]
        rows[rank] = [v * inv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def dense(rows, n_cols):
    """Sparse rows ``{column: value}`` as dense lists of n_cols entries."""
    return [[row.get(j, 0) for j in range(n_cols)] for row in rows]


def _perm_sign(seq):
    sign = 1
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def ce_differential_matrix(structure_constants, rank, degree):
    """Matrix of the Chevalley-Eilenberg differential on basis forms.

    ``structure_constants[(a, b)][c]`` = coefficient of e_c in [e_a, e_b]
    for a < b (ints/Fractions).  Built by direct evaluation of

        (d w)(X_0..X_k) = sum_{i<j} (-1)^{i+j} w([X_i,X_j], rest)

    on every increasing tuple, without any shared form machinery.
    """

    def bracket(a, b):
        if a == b:
            return {}
        if a < b:
            pairs = structure_constants.get((a, b), {})
            return dict(pairs) if isinstance(pairs, dict) else {
                c: v for c, v in enumerate(pairs) if v
            }
        flipped = bracket(b, a)
        return {c: -v for c, v in flipped.items()}

    domain = list(combinations(range(rank), degree))
    codomain = list(combinations(range(rank), degree + 1))
    matrix = [[Fraction(0)] * len(domain) for _ in codomain]
    for row, T in enumerate(codomain):
        for i in range(len(T)):
            for j in range(i + 1, len(T)):
                rest = tuple(T[l] for l in range(len(T)) if l not in (i, j))
                for c, coeff in bracket(T[i], T[j]).items():
                    args = (c,) + rest
                    if len(set(args)) != len(args):
                        continue
                    col = domain.index(tuple(sorted(args)))
                    sign = (-1) ** (i + j) * _perm_sign(args)
                    matrix[row][col] += Fraction(sign) * Fraction(coeff)
    return matrix


def poincare_coefficients(degrees):
    """The coefficients of prod (1 + t^d) over the given degrees."""
    coefficients = [1]
    for d in degrees:
        coefficients = [a + (coefficients[k - d] if k >= d else 0)
                        for k, a in enumerate(coefficients + [0] * d)]
    return coefficients


def ce_betti_numbers(structure_constants, rank):
    """Betti numbers of a Lie algebra from raw differential matrices."""
    dims = [len(list(combinations(range(rank), k))) for k in range(rank + 1)]
    ranks = []
    for k in range(rank + 1):
        if k == rank:
            ranks.append(0)
        else:
            ranks.append(row_reduce_rank(ce_differential_matrix(structure_constants, rank, k)))
    betti = []
    for k in range(rank + 1):
        image_prev = ranks[k - 1] if k else 0
        betti.append(dims[k] - ranks[k] - image_prev)
    return betti


def full_groupoid_betti_numbers(G, fiber, matrices, max_degree):
    """Betti numbers b_0..b_max_degree of the full groupoid cochain complex.

    ``fiber[x]`` is the fibre dimension at object x and ``matrices[g]`` the
    dense matrix of lambda_g: E_{s(g)} -> E_{t(g)}.  A k-cochain takes values
    at the end x_k of each chain x_0 -> .. -> x_k, and every composable tuple
    is a chain, units included; degree 0 uses the objects.  The differential
    is evaluated face by face,

        d phi(g_1..g_{k+1}) = phi(g_2..g_{k+1})
                            + sum_i (-1)^i phi(.., g_i g_{i+1}, ..)
                            + (-1)^{k+1} lambda_{g_{k+1}} phi(g_1..g_k),

    and d phi(g) = lambda_g phi(s(g)) - phi(t(g)) in degree zero.
    """

    def chains(k):
        if k == 0:
            return [(x,) for x in G.objects]
        out = [(g,) for g in G.arrows]
        for _ in range(k - 1):
            out = [c + (g,) for c in out for g in G.arrows if G.target[c[-1]] == G.source[g]]
        return out

    def basis(k):
        end = (lambda c: c[0]) if k == 0 else (lambda c: G.target[c[-1]])
        return [(c, j) for c in chains(k) for j in range(fiber[end(c)])]

    def differential(k):
        columns = {label: n for n, label in enumerate(basis(k))}
        matrix = []
        for c, j in basis(k + 1):
            row = [Fraction(0)] * len(columns)
            last = c[-1]
            if k == 0:
                for i in range(fiber[G.source[last]]):
                    row[columns[((G.source[last],), i)]] += matrices[last][j][i]
                row[columns[((G.target[last],), j)]] -= 1
            else:
                row[columns[(c[1:], j)]] += 1
                for i in range(1, k + 1):
                    face = c[:i - 1] + (G.compose(c[i - 1], c[i]),) + c[i + 1:]
                    row[columns[(face, j)]] += (-1) ** i
                for i in range(fiber[G.source[last]]):
                    row[columns[(c[:-1], i)]] += (-1) ** (k + 1) * matrices[last][j][i]
            matrix.append(row)
        return matrix

    dims = [len(basis(k)) for k in range(max_degree + 1)]
    ranks = [row_reduce_rank(differential(k)) for k in range(max_degree + 1)]
    return [dims[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(max_degree + 1)]


def euler_characteristic(faces):
    """V - E + F of a triangulated closed surface given as vertex triples."""
    vertices = set()
    edges = set()
    for face in faces:
        a, b, c = face
        vertices.update(face)
        edges.add(frozenset((a, b)))
        edges.add(frozenset((b, c)))
        edges.add(frozenset((a, c)))
    return len(vertices) - len(edges) + len(faces)


def octahedron_faces():
    """The standard octahedral triangulation of the 2-sphere."""
    top, bottom = "N", "S"
    ring = ["E0", "E1", "E2", "E3"]
    faces = []
    for i in range(4):
        a, b = ring[i], ring[(i + 1) % 4]
        faces.append((top, a, b))
        faces.append((bottom, a, b))
    return faces


def leibniz_determinant(entries, mul, add, zero):
    """Determinant by the permutation sum, over any commutative product."""
    n = len(entries)
    total = zero
    for perm in permutations(range(n)):
        term = None
        for i in range(n):
            term = entries[i][perm[i]] if term is None else mul(term, entries[i][perm[i]])
        if _perm_sign(perm) < 0:
            term = -term
        total = add(total, term)
    return total


def central_difference(f, point, index, h=1e-6):
    plus = list(point)
    minus = list(point)
    plus[index] += h
    minus[index] -= h
    return (f(plus) - f(minus)) / (2 * h)


# -- Lie algebroid and morphism checks by index loops ------------------------
#
# The bracket-morphism, Jacobi and morphism identities expanded over frame
# indices, as the library checked them before validation became d o d = 0.
# Each returns the violations (kind, 1-based indices, residual) in report
# order; only chart scalars and the presentation's arrays are used.


def _apply(A, a, f):
    """rho(e_a)(f) = sum_i rho^i_a df/dx_i."""
    out = A.chart.zero()
    for i, coeff in enumerate(A.anchor[a]):
        if not coeff.is_zero():
            out = out + coeff * f.derive(i)
    return out


def _bracket(A, a, b):
    zero = [A.chart.zero()] * A.rank
    if a < b:
        return list(A.structure.get((a, b), zero))
    return [-c for c in A.structure.get((b, a), zero)]


def algebroid_violations(A):
    found = []
    # rho([e_a, e_b])^i = rho(e_a)(rho^i_b) - rho(e_b)(rho^i_a)
    for a, b in combinations(range(A.rank), 2):
        coeffs = _bracket(A, a, b)
        for i in range(A.chart.dim):
            lhs = A.chart.zero()
            for c in range(A.rank):
                if not coeffs[c].is_zero():
                    lhs = lhs + coeffs[c] * A.anchor[c][i]
            residual = lhs - (_apply(A, a, A.anchor[b][i]) - _apply(A, b, A.anchor[a][i]))
            if not residual.is_zero():
                found.append(("anchor-morphism", (a + 1, b + 1, i + 1), residual))
    # [[e_a, e_b], e_c] + cyclic, with [f e_d, e_z] = f [e_d, e_z] - rho(e_z)(f) e_d;
    # the first nonzero component is reported
    for a, b, c in combinations(range(A.rank), 3):
        total = {}
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            for d, coeff in enumerate(_bracket(A, x, y)):
                if coeff.is_zero():
                    continue
                for e, value in enumerate(_bracket(A, d, z)):
                    if not value.is_zero():
                        total[e] = total.get(e, A.chart.zero()) + coeff * value
                if A.chart.dim:
                    total[d] = total.get(d, A.chart.zero()) - _apply(A, z, coeff)
        for e in sorted(total):
            if not total[e].is_zero():
                found.append(("jacobi", (a + 1, b + 1, c + 1), total[e]))
                break
    return found


def morphism_violations(morphism):
    src, tgt = morphism.source, morphism.target
    phi, zero = morphism.bundle_map, src.chart.zero()

    def compose(scalar):
        return scalar.substitute(morphism.base_map)

    found = []
    # rho_2(phi(e_a))^i o f = rho_1(e_a)(f^i)
    for a in range(src.rank):
        for i in range(tgt.chart.dim):
            lhs = zero
            for b in range(tgt.rank):
                if not phi[a][b].is_zero():
                    lhs = lhs + phi[a][b] * compose(tgt.anchor[b][i])
            residual = lhs - _apply(src, a, morphism.base_map[i])
            if not residual.is_zero():
                found.append(("anchor-compatibility", (a + 1, i + 1), residual))
    # phi([e_a, e_b]) = sum phi^c_a phi^d_b [e_c, e_d] o f
    #                   + rho_1(e_a)(phi^d_b) e_d - rho_1(e_b)(phi^c_a) e_c
    for a, b in combinations(range(src.rank), 2):
        lhs = [zero] * tgt.rank
        for c, coeff in enumerate(_bracket(src, a, b)):
            if not coeff.is_zero():
                for d in range(tgt.rank):
                    if not phi[c][d].is_zero():
                        lhs[d] = lhs[d] + coeff * phi[c][d]
        rhs = [zero] * tgt.rank
        for c in range(tgt.rank):
            for d in range(tgt.rank):
                if phi[a][c].is_zero() or phi[b][d].is_zero():
                    continue
                for e, value in enumerate(_bracket(tgt, c, d)):
                    if not value.is_zero():
                        rhs[e] = rhs[e] + phi[a][c] * phi[b][d] * compose(value)
        for d in range(tgt.rank):
            rhs[d] = rhs[d] + _apply(src, a, phi[b][d]) - _apply(src, b, phi[a][d])
            residual = lhs[d] - rhs[d]
            if not residual.is_zero():
                found.append(("bracket-compatibility", (a + 1, b + 1, d + 1), residual))
    return found


# -- connection identities by index loops -------------------------------------
#
# Curvature, metric compatibility and the pulled-back connection expanded over
# frame and bundle indices, as the library computed them before it read them
# off the forms layer (R = d Gamma + Gamma ^ Gamma); only chart scalars and the
# connection's coefficient matrices are used.


def curvature_components(conn):
    """{(i, j): {(a, b): value}} over the nonzero components, a < b, of
    R_ab = rho(e_a) Gamma_b - rho(e_b) Gamma_a + [Gamma_a, Gamma_b] - C^c_ab Gamma_c."""
    A, m, gamma = conn.algebroid, conn.bundle_rank, conn.matrices
    out = {(i, j): {} for i in range(m) for j in range(m)}
    for a, b in combinations(range(A.rank), 2):
        bracket = _bracket(A, a, b)
        for i in range(m):
            for j in range(m):
                value = _apply(A, a, gamma[b][i][j]) - _apply(A, b, gamma[a][i][j])
                for k in range(m):
                    value = (value + gamma[a][i][k] * gamma[b][k][j]
                             - gamma[b][i][k] * gamma[a][k][j])
                for c in range(A.rank):
                    if not bracket[c].is_zero():
                        value = value - bracket[c] * gamma[c][i][j]
                if not value.is_zero():
                    out[(i, j)][(a, b)] = value
    return out


def metric_compatibility(conn, metric):
    """{(a, b, c): rho(e_a)<e_b,e_c> - <nabla_a e_b, e_c> - <e_b, nabla_a e_c>}
    over the nonzero values, in the order of (a, b, c)."""
    A, g, gamma = conn.algebroid, metric.entries, conn.matrices
    out = {}
    for a in range(A.rank):
        for b in range(A.rank):
            for c in range(A.rank):
                value = _apply(A, a, g[b][c])
                for d in range(A.rank):
                    value = value - gamma[a][d][b] * g[d][c]
                    value = value - gamma[a][d][c] * g[b][d]
                if not value.is_zero():
                    out[(a, b, c)] = value
    return out


def pulled_back_matrices(morphism, conn):
    """The source frame's coefficient matrices of the pulled-back connection,
    sum_b phi^b_a (Gamma_b o f)."""
    src, m, phi = morphism.source, conn.bundle_rank, morphism.bundle_map
    mats = []
    for a in range(src.rank):
        mat = [[src.chart.zero()] * m for _ in range(m)]
        for b in range(morphism.target.rank):
            if phi[a][b].is_zero():
                continue
            for i in range(m):
                for j in range(m):
                    mat[i][j] = mat[i][j] + phi[a][b] * conn.matrices[b][i][j].substitute(
                        morphism.base_map)
        mats.append(mat)
    return mats

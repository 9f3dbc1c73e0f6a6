"""The lattice command."""

from __future__ import annotations

from .. import lattice
from . import _emit, _frac


def _cmd_lattice(args) -> int:
    if args.lattice_cmd == "disc":
        dg = lattice.disc_group(args.m, args.n, args.gamma)
        res = {
            "orders": list(dg.orders),
            "q": [_frac(q) for q in dg.gen_q],
            "invariant_factors": list(dg.invariant_factors),
            "order": dg.order,
        }
        return _emit(args, "lattice disc",
                     {"m": args.m, "n": args.n, "gamma": args.gamma}, res)
    if args.lattice_cmd == "orbit":
        spec = lattice.polarized_orthogonal(args.m, args.n, args.gamma)
        key = lattice.OrbitKey(args.square, args.div)
        res = {"exists": lattice.exists_primitive_vector(spec, key)}
        return _emit(args, "lattice orbit",
                     {"m": args.m, "n": args.n, "gamma": args.gamma,
                      "square": args.square, "div": args.div}, res)
    m2, n2, g2 = lattice.strange_dual_params(args.m, args.n, args.gamma)
    return _emit(args, "lattice dual",
                 {"m": args.m, "n": args.n, "gamma": args.gamma},
                 {"m": m2, "n": n2, "gamma": g2})

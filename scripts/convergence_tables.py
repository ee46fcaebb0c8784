#!/usr/bin/env python3
"""Write the convergence tables behind the asymptotic engines as CSV, on stdout
or into --outdir.  Their rows are those of the ``hopnorms.validate.CASES``
records that name a table, on the grids the validation checks read:

  q          quadrature vs the large-q Laplace/Watson leading terms
  parameter  quadrature vs the large-parameter leading terms (log-domain ratios)
  shannon    quadrature vs the Shannon-functional parameter forms

Example:
  python scripts/convergence_tables.py --table all --outdir tables/
"""
import argparse
import math
import sys
from pathlib import Path

from hopnorms.validate import CASES, evaluate

# table: (point column, last column, its value from (log_quad, log_asym), rows by point)
TABLES = {
    "q": ("q", "ratio_minus_1", lambda lq, la: math.expm1(lq - la), False),
    "parameter": ("parameter", "log_ratio", lambda lq, la: la / lq, False),
    "shannon": ("parameter", "log_ratio", lambda lq, la: la / lq, True),
}


def table(name):
    point, last, derived, by_point = TABLES[name]
    rows = [(c.table[1], p, lq, la, derived(lq, la))
            for c in CASES if c.table and c.table[0] == name for p, lq, la in evaluate(c.name)]
    return [("case", point, "log_quad", "log_asym", last),
            *(sorted(rows, key=lambda row: row[1]) if by_point else rows)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--table", default="all", choices=sorted(TABLES) + ["all"])
    ap.add_argument("--outdir", default=None)
    args = ap.parse_args(argv)

    for name in sorted(TABLES) if args.table == "all" else [args.table]:
        text = "\n".join(",".join("%.17g" % v if isinstance(v, float) else str(v)
                                  for v in row) for row in table(name))
        if args.outdir:
            path = Path(args.outdir) / f"{name}_convergence.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text + "\n")
            print(f"wrote {path}")
        else:
            print(f"# table: {name}\n{text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

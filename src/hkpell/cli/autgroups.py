"""The aut command and the aut-n3 table."""

from .. import autgroups


def _degrees(command: str, emax: int) -> range:
    if emax < 2:  # degrees e' start at 2: a smaller bound leaves nothing to tabulate
        raise ValueError(f"aut {command} needs emax >= 2, got emax={emax}")
    return range(2, emax + 1)


def s2(params: dict) -> dict:
    a, b = autgroups.bir_s2(**params)
    return {"aut": str(a), "bir": str(b)}


def sm(params: dict) -> dict:
    return {"bir": str(autgroups.bir_sm(**params))}


def fourfold(params: dict) -> dict:
    a, b = autgroups.fourfold_groups(**params)
    return {"aut": str(a), "bir": str(b)}


def table_rows(params: dict) -> list[list[str]]:
    rows = [["e_prime", "aut", "bir"]]
    for ep in _degrees("table", params["emax"]):
        a, b = autgroups.fourfold_groups(params["n"], ep)
        rows.append([str(ep), str(a), str(b)])
    return rows


def table(params: dict) -> list[dict]:
    return [{"e_prime": int(ep), "aut": a, "bir": b} for ep, a, b in table_rows(params)[1:]]


def search(params: dict) -> dict:
    return {"e": [e for e in _degrees("search", params["emax"])
                  if e % 5 and autgroups.bir_s2(e) == (autgroups.TRIVIAL, autgroups.Z2)]}

"""The pell command."""

from .. import pell


def fundamental(params: dict) -> dict:
    s = pell.fundamental_solution(params["d"])
    return {"a": s.a, "b": s.b}


def min_solution(params: dict) -> dict | None:
    s = pell.min_positive_solution(pell.PellEquation(params["e1"], params["d"], params["t"]))
    return None if s is None else {"a": s.a, "b": s.b}


def classes(params: dict) -> list[dict]:
    return [{"a": c.representative.a, "b": c.representative.b, "conjugate_of": c.conjugate_of}
            for c in pell.solution_classes(**params)]


def stream(params: dict) -> list[dict]:
    return [{"a": s.a, "b": s.b} for s in pell.solutions_in_order(**params)]

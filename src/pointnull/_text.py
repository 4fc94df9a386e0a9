"""The csv and table renderers, which only those two formats load.

cli.render_csv and cli.render_table import this module when they run, so a
json call compiles none of it. Both formats read the envelope in one pass:
its inputs and scalar results, and its rows as a header and cells of text.
"""

from typing import Any


def _fmt(value: Any, digits: int | None = None) -> str:
    """Output text for a value; a float in full (repr) unless digits is given."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if digits is None else f"{value:.{digits}g}"
    return str(value)


def render(env: dict, digits: int, csv: bool) -> str:
    """env as csv (comment lines, then a header and its rows) or as an aligned table."""
    scalars = {k: v for k, v in env["results"].items() if k != "rows"}
    # csv writes scalar results as key,value rows where there are no rows
    rows = env["results"].get("rows") or [{"key": k, "value": v} for k, v in scalars.items() if csv]
    columns = list(rows[0]) if rows else ["key", "value"]
    cells = [columns, *([_fmt(row[c], digits) for c in columns] for row in rows)]
    sections = {"input": env["inputs"], "result": scalars}
    if csv:
        # comment-line values keep full precision so the emission is
        # recomputable without the JSON twin
        lines = [f"# format_version={env['format_version']} command={env['command']}"]
        for name, items in sections.items():
            lines += [f"# {name} " + " ".join(f"{k}={_fmt(v)}" for k, v in items.items())] if items else []
        lines += [f"# provenance {name}={tag}" for name, tag in env.get("provenance", [])]
        return "\n".join(lines + [",".join(row) for row in cells]) + "\n"
    lines = [f"{env['command']}  (format_version {env['format_version']})"]
    for name, items in sections.items():
        lines += [f"{name}s:", *(f"  {k} = {_fmt(v, digits)}" for k, v in items.items())] if items else []
    if rows:
        widths = [max(map(len, column)) for column in zip(*cells)]
        cells.insert(1, ["-" * w for w in widths])
        lines += ["", *("  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in cells)]
    return "\n".join(lines) + "\n"

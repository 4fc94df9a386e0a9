"""The JSON writer, which only the json format loads, so that no call imports json."""

import math


def dumps(value: object, newline: str = "\n") -> str:
    """json.dumps(value, indent=2, allow_nan=False), byte for byte, nested at newline's indent."""
    if isinstance(value, str):
        if value.isascii() and value.isprintable() and '"' not in value and "\\" not in value:
            return f'"{value}"'
        from _json import encode_basestring_ascii  # json's own escapes, for the rare string

        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    if isinstance(value, (int, float)):
        return (float if isinstance(value, float) else int).__repr__(value)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    if isinstance(value, dict):
        items = (f"{dumps(k, inner)}: {dumps(v, inner)}" for k, v in value.items())
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return "[" + inner + ("," + inner).join(dumps(v, inner) for v in value) + newline + "]"

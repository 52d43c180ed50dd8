"""Flat key-value configuration files.  Every key comes from one table,
:data:`KEYS`, which ``app.SWEEPABLE`` is derived from."""
from .model import SchemeConfig, SourceParams, field_kinds

#: Largest configuration file read, in bytes; a longer one is rejected
#: before it is parsed, so a device such as /dev/zero cannot fill memory.
MAX_CONFIG_BYTES = 1 << 20


class ConfigError(Exception):
    """Invalid configuration file or sweep specification."""


#: {key: (class, field name, kind)} from ``model.field_kinds``: each key is
#: its field's name (``lambda`` for ``lam``); readings are flags, not keys.
KEYS = {("lambda" if name == "lam" else name): (cls, name, kind)
        for cls in (SourceParams, SchemeConfig)
        for name, kind, _, _ in field_kinds(cls)
        if name not in ("include_filter_in_d0", "literal_exponent")}


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_value(key: str, text: str, kind):
    try:
        if kind is bool:
            return _parse_bool(text)
        if kind in (int, float):
            return kind(text)
        return kind(text.strip().lower())  # an enum, by its value
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {text!r}") from exc


def parse_config(text: str) -> tuple[SourceParams, SchemeConfig]:
    """Parse a flat key-value configuration.

    One ``key = value`` pair per line, ``#`` starts a comment, unknown and
    repeated keys are rejected.  ``eta_det`` defaults to the protocol-matched
    value when omitted (0.7 single detector, 0.8 array); ``n_bins`` defaults
    to 31.
    """
    given: dict = {SourceParams: {}, SchemeConfig: {"n_bins": 31}}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first_line:
            raise ConfigError(f"line {lineno}: repeated configuration key "
                              f"{key!r} (first set on line {first_line[key]})")
        first_line[key] = lineno
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        cls, field_name, kind = KEYS[key]
        given[cls][field_name] = _parse_value(key, value, kind)
    scheme = SchemeConfig(**given[SchemeConfig])
    params = SourceParams.table_defaults(scheme.detection, **given[SourceParams])
    return params, scheme


def load_config(path=None) -> tuple[SourceParams, SchemeConfig]:
    """Parse the configuration file at ``path``; no path gives the defaults.

    The file is UTF-8, with or without a leading byte-order mark, and at
    most MAX_CONFIG_BYTES long.
    """
    if path is None:
        return parse_config("")
    try:
        with open(path, "rb") as fh:
            data = fh.read(MAX_CONFIG_BYTES + 1)
        if len(data) > MAX_CONFIG_BYTES:
            raise ConfigError(f"cannot read config {path}: "
                              f"longer than {MAX_CONFIG_BYTES} bytes")
        text = data.decode("utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)

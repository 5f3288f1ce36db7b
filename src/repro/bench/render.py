"""Text rendering of benchmark outputs: tables and the Figure 7/8 bars."""


def render_table(headers, rows, title=None):
    """Fixed-width text table.

    >>> print(render_table(["a", "b"], [["x", 1]]))
    a  b
    -  -
    x  1
    """
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def render_overhead_bars(cells, bar_width=32, title=None):
    """The Figure 7/8 layout: clusters of normalized bars with capture counts.

    Each cluster is one (algorithm, dataset) pair; each bar one
    DebugConfig, scaled relative to the no-debug baseline (1.0), annotated
    with its normalized runtime and total capture count.
    """
    # The CLI's tables must not load the experiment grid, and with it the engine.
    from repro.bench.overhead import NO_DEBUG

    lines = []
    if title:
        lines.append(title)
    clusters = {}
    for cell in cells:
        clusters.setdefault((cell.algorithm, cell.dataset), []).append(cell)
    scale = max((c.normalized for c in cells), default=1.0)
    for (algorithm, dataset), cluster in clusters.items():
        lines.append("")
        lines.append(f"{algorithm}-{dataset}")
        for cell in cluster:
            filled = max(1, round(cell.normalized / scale * bar_width))
            bar = "#" * filled + " " * (bar_width - filled)
            captures = "" if cell.config_name == NO_DEBUG else f"  captures={cell.captures}"
            lines.append(
                f"  {cell.config_name:<10} {cell.normalized:5.2f} |{bar}|"
                f" ±{cell.std_seconds * 1e3:5.1f}ms{captures}"
            )
    return "\n".join(lines)


def render_headlines(worst_by_config):
    """The paper's Section 5 headline sentences from measured maxima."""
    lines = ["Worst-case overhead per DebugConfig across the grid:"]
    for config_name in sorted(worst_by_config):
        percent = worst_by_config[config_name] * 100.0
        lines.append(f"  {config_name:<10} {percent:6.1f}%")
    return "\n".join(lines)

"""The README's code runs as written."""

import re
from pathlib import Path

from appcap.cli import main

ROOT = Path(__file__).resolve().parent.parent


def library_example() -> str:
    section = (ROOT / "README.md").read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example_prints_the_app_data_distribution(tmp_path, capsys):
    assert main(["synth", str(ROOT / "fixtures" / "background.json"), str(tmp_path)]) == 0
    capture = next(tmp_path.glob("*.pcap"))
    code = library_example()
    assert '"capture.pcap"' in code
    capsys.readouterr()
    exec(code.replace('"capture.pcap"', repr(str(capture))), {})
    # The spec's app-data packets per flow; handshakes are not app data.
    counts = {("TCP", "DoT"): 17, ("TCP", "HTTP"): 4, ("TCP", "TLSv1.3"): 487, ("UDP", "Do53"): 14}
    total = sum(counts.values())
    assert capsys.readouterr().out.splitlines() == [
        f"{transport} {protocol} {count} {100 * count / total:.1f}%"
        for (transport, protocol), count in counts.items()
    ]

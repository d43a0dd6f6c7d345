"""Wire payloads of a report batch, as ``read_reports`` hands them to ``of``."""
import io
import json

from zoneldp.oracles import write_reports


def trace_text(batch, mechanism=None) -> str:
    """The batch as a JSON-lines report trace, tagged ``mechanism`` if given."""
    buffer = io.StringIO()
    write_reports(batch, buffer, mechanism)
    return buffer.getvalue()


def payloads(batch) -> list:
    """The batch's wire payloads, one dict per report."""
    return [json.loads(line)["payload"] for line in trace_text(batch).splitlines()]

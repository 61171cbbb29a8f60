"""Known-bad fixture for RS009: spans opened outside ``with``.

Every opener call (``span`` / ``detached_span``, with or without an
explicit parent) that is not the context expression of a ``with``
must fire; the ``with``-wrapped and ``record_span`` uses must not.
"""


def leaky_root(tracer):
    span = tracer.detached_span("server.request")  # RS009: never closed on raise
    span.__enter__()
    return span


def leaky_stage(tracer, parent):
    child = tracer.detached_span("reply", parent)  # RS009: manual enter/exit
    child.__enter__()
    child.__exit__(None, None, None)
    return child


def leaky_anchor(tracer, parent):
    opened = tracer.span("worker.exec", parent)  # RS009
    opened.__enter__()
    return opened


def leaky_stack_span(tracer):
    return tracer.span("query")  # RS009: returned open, caller may leak it


def fine_with_block(tracer):
    with tracer.span("query") as span:
        span.set(rows=1)


def fine_explicit_parents(tracer, parent):
    with tracer.detached_span("server.request") as root:
        with tracer.detached_span("frame.decode", root):
            pass
        with tracer.span("worker.exec", root):
            pass


def fine_record(tracer, parent):
    # one-shot: record_span returns an already-finished span
    return tracer.record_span("admission.wait", parent, 0.0, 0.01)

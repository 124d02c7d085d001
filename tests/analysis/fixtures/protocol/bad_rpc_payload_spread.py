# Seeded fault: the payload is ``{"vnode": v, **bundle}`` with the
# bundle built by a helper whose every return is a dict display -- the
# SednaNode._export_rows / replica.install shape.  The helper forgets
# "rows", which the handler reads unconditionally; the spread must not
# hide the call site from rpc-payload-mismatch.


class Node:
    def __init__(self, rpc):
        self.rpc = rpc
        self.rpc.register("fx.install", self._h_install)

    def _h_install(self, src, args):
        return args["vnode"], args["rows"], args.get("lww")

    def _export(self, keys):
        if not keys:
            return {"lww": {}}
        return {"lww": {key: True for key in keys}}

    def push(self, keys):
        bundle = self._export(keys)
        ok = yield from self.rpc.call("peer", "fx.install",
                                      {"vnode": 7, **bundle},
                                      timeout=1.0)
        return ok

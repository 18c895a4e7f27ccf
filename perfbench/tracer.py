"""Per-layer tracing of dunklops from outside the package.

The tracer replaces the public entry points of each layer with wrappers
that time every call.  Nothing under ``src/`` is edited: the wrappers are
installed on the names where callers look them up, which matters in four
places:

- ``CycloScalar.__radd__``/``__rmul__`` and ``ZRat.__radd__``/``__rmul__``
  are aliases bound when the class was created, so each alias is patched
  with the same wrapper as its twin;
- ``identities`` (and ``exprparse``, ``cli``) import their helpers by value,
  so the module attribute in every importing module is patched;
- ``builders.OPERATORS`` holds function objects, which are swapped in the
  dict;
- ``shadow_reports`` imports ``numeric_check_spec`` at call time, so the
  attribute of ``dunklops.oracle`` is the one that counts.

Spans are aggregated in memory rather than stored one by one: a suite run
makes millions of scalar calls.  A span's self time is its duration minus
the durations of the spans it encloses; the inclusive time of a recursive
operation is counted at its outermost activation only.
"""

from __future__ import annotations

from time import perf_counter

# Stats whose self time counts as exact arithmetic for oracle.coeffring_share.
_EXACT_PREFIXES = ("cyclofield.", "coeffring.")


class Stat:
    __slots__ = ("calls", "self_s", "incl_s", "oracle_self_s")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.oracle_self_s = 0.0


class Tracer:
    """Installs timing wrappers and aggregates their spans."""

    def __init__(self):
        self.stats: dict = {}
        self.root_s = 0.0            # summed duration of outermost spans
        self.trig_hits = 0
        self.product_terms = 0
        self._stack: list = []       # child time of each open span
        self._open: dict = {}        # Stat -> open activations
        self._oracle = [0]           # open oracle.spec activations
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        return stat

    def wrap(self, name, fn, name_of=None):
        """A wrapper of ``fn`` recording one span per call.  ``name_of``
        derives the stat name from the call arguments instead."""
        stack, opened, oracle = self._stack, self._open, self._oracle
        fixed = None if name_of else self._stat(name)
        exact = name.startswith(_EXACT_PREFIXES)
        is_oracle = name == "oracle.spec"
        tracer = self

        def traced(*args, **kwargs):
            stat = fixed or tracer._stat(name_of(*args, **kwargs))
            depth = opened.get(stat, 0)
            opened[stat] = depth + 1
            if is_oracle:
                oracle[0] += 1
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span = perf_counter() - start
                own = span - stack.pop()
                opened[stat] = depth
                if is_oracle:
                    oracle[0] -= 1
                stat.calls += 1
                stat.self_s += own
                if exact and oracle[0]:
                    stat.oracle_self_s += own
                if not depth:
                    stat.incl_s += span
                if stack:
                    stack[-1] += span
                else:
                    tracer.root_s += span

        traced.__wrapped__ = fn
        return traced

    # -- installation --------------------------------------------------------

    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

    def _patch_method(self, cls, attrs, name):
        wrapper = self.wrap(name, getattr(cls, attrs[0]))
        for attr in attrs:
            self._set(cls, attr, wrapper)

    def _patch_function(self, modules, attr, wrapper):
        for mod in modules:
            if hasattr(mod, attr):
                self._set(mod, attr, wrapper)

    def install(self):
        from dunklops import (builders, cli, coeffring, cyclofield, exprparse,
                              identities, opalgebra, oracle)

        scalar = cyclofield.CycloScalar
        self._patch_method(scalar, ("__mul__", "__rmul__"),
                           "cyclofield.scalar_mul")
        # __rsub__ delegates to __sub__, so only __sub__ is counted.
        self._patch_method(scalar, ("__add__", "__radd__"),
                           "cyclofield.scalar_add")
        self._patch_method(scalar, ("__sub__",), "cyclofield.scalar_add")
        self._patch_method(scalar, ("inv",), "cyclofield.scalar_inv")

        zrat = coeffring.ZRat
        # ZRat.__sub__ and __rsub__ go through __add__.
        self._patch_method(zrat, ("__add__", "__radd__"), "coeffring.zrat_add")
        self._patch_method(zrat, ("__mul__", "__rmul__"), "coeffring.zrat_mul")
        self._patch_method(zrat, ("d_phi",), "coeffring.zrat_dphi")
        self._patch_method(zrat, ("rotate_n",), "coeffring.zrat_rotate")
        self._patch_method(zrat, ("reflect",), "coeffring.zrat_reflect")
        self._patch_method(zrat, ("inv",), "coeffring.zrat_inv")

        coeff = coeffring.Coefficient
        self._patch_method(coeff, ("__add__", "__radd__"),
                           "coeffring.coeff_add")
        self._patch_method(coeff, ("__mul__", "__rmul__"),
                           "coeffring.coeff_mul")

        trig = coeffring.trig

        def counted_trig(ctx, kind, j=0):
            before = len(ctx.trig_cache)
            out = trig(ctx, kind, j)
            if len(ctx.trig_cache) == before:
                self.trig_hits += 1
            return out

        self._patch_function((coeffring, builders, identities, exprparse),
                             "trig", self.wrap("coeffring.trig", counted_trig))

        product = opalgebra.OpExpr.__mul__

        def counted_product(left, right):
            out = product(left, right)
            if out is not NotImplemented:
                self.product_terms += len(out.terms)
            return out

        # OpExpr.__rmul__ coerces and calls __mul__, so it is not wrapped.
        self._set(opalgebra.OpExpr, "__mul__",
                  self.wrap("opalgebra.product", counted_product))
        self._patch_method(opalgebra.OpExpr, ("adjoint",), "opalgebra.adjoint")
        self._patch_method(opalgebra.OpExpr, ("project_identity",),
                           "opalgebra.project")

        for attr in builders.__all__:
            if not attr.startswith(("build_", "explicit_")):
                continue
            original = getattr(builders, attr)
            wrapper = self.wrap("builders.build", original)
            self._patch_function((builders, identities, exprparse), attr,
                                 wrapper)
            for key, value in list(builders.OPERATORS.items()):
                if value is original:
                    self._set(builders.OPERATORS, key, wrapper)

        def check_name(check_id, *_args, **_kwargs):
            return "identities.check." + check_id

        for attr in ("run_check", "shadow_reports"):
            self._set(identities, attr,
                      self.wrap("identities.check",
                                getattr(identities, attr), check_name))

        self._set(oracle, "numeric_check_spec",
                  self.wrap("oracle.spec", oracle.numeric_check_spec))
        for attr in ("parse_op", "pretty"):
            self._patch_function((exprparse, cli), attr,
                                 self.wrap("exprparse." + attr,
                                           getattr(exprparse, attr)))
        self._set(cli, "main", self.wrap("cli.main", cli.main))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-stat figures plus the derived counters, JSON-ready."""
        return {
            "stats": {name: {"calls": st.calls, "self_s": st.self_s,
                             "incl_s": st.incl_s,
                             "oracle_self_s": st.oracle_self_s}
                      for name, st in self.stats.items()},
            "root_s": self.root_s,
            "self_total_s": sum(st.self_s for st in self.stats.values()),
            "trig_hits": self.trig_hits,
            "product_terms": self.product_terms,
        }

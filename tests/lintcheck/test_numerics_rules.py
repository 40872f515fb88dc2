"""Array-numerics rules: ``dtype-drift``, ``silent-broadcast``, and the
scoped ``python-loop-over-ndarray`` vectorization-opportunity lint."""

from __future__ import annotations

import textwrap

from repro.lintcheck.core import check_source, rules_for

DTYPE = rules_for(select=["dtype-drift"])
BROADCAST = rules_for(select=["silent-broadcast"])
LOOPS = rules_for(select=["python-loop-over-ndarray"])


def lint(source, rules, path="src/repro/litho/mod.py"):
    return check_source(textwrap.dedent(source), path=path, rules=rules)


class TestDtypeDrift:
    def test_f32_meets_f64_in_binop(self):
        found = lint("""
            import numpy as np

            def f(n):
                low = np.zeros(n, dtype=np.float32)
                high = np.linspace(0.0, 1.0, n)
                return low + high
        """, DTYPE)
        assert [f.rule for f in found] == ["dtype-drift"]

    def test_walrus_binds_the_dtype(self):
        found = lint("""
            import numpy as np

            def f(n):
                if (low := np.zeros(n, dtype=np.float32)) is not None:
                    return low + np.linspace(0.0, 1.0, n)
        """, DTYPE)
        assert [f.rule for f in found] == ["dtype-drift"]

    def test_matching_f32_is_clean(self):
        found = lint("""
            import numpy as np

            def f(n):
                low = np.zeros(n, dtype=np.float32)
                high = np.ones(n, dtype=np.float32)
                return low + high
        """, DTYPE)
        assert found == []

    def test_complex_survives_fft_until_ordered(self):
        found = lint("""
            import numpy as np

            def f(mask, level):
                field = np.fft.fft2(mask)
                return field < level
        """, DTYPE)
        assert [f.rule for f in found] == ["dtype-drift"]

    def test_abs_realizes_complex(self):
        found = lint("""
            import numpy as np

            def f(mask, level):
                field = np.abs(np.fft.fft2(mask))
                return field < level
        """, DTYPE)
        assert found == []

    def test_ordering_call_over_complex(self):
        found = lint("""
            import numpy as np

            def f(mask):
                spectrum = np.fft.fft2(mask)
                return max(spectrum)
        """, DTYPE)
        assert [f.rule for f in found] == ["dtype-drift"]

    def test_ifft_real_part_is_clean(self):
        found = lint("""
            import numpy as np

            def f(spectrum, level):
                image = np.real(np.fft.ifft2(spectrum))
                return image > level
        """, DTYPE)
        assert found == []


class TestSilentBroadcast:
    def test_independent_axis_lengths_combined(self):
        found = lint("""
            import numpy as np

            def f(nx, ny, pixel):
                fx = np.fft.fftfreq(nx, d=pixel)
                fy = np.fft.fftfreq(ny, d=pixel)
                return fx * fy
        """, BROADCAST)
        assert [f.rule for f in found] == ["silent-broadcast"]

    def test_same_axis_is_clean(self):
        found = lint("""
            import numpy as np

            def f(nx, pixel):
                fx = np.fft.fftfreq(nx, d=pixel)
                window = np.arange(nx)
                return fx * window
        """, BROADCAST)
        assert found == []

    def test_meshgrid_clears_the_tags(self):
        found = lint("""
            import numpy as np

            def f(nx, ny, pixel):
                fx = np.fft.fftfreq(nx, d=pixel)
                fy = np.fft.fftfreq(ny, d=pixel)
                fxg, fyg = np.meshgrid(fx, fy)
                return fxg * fxg + fyg * fyg
        """, BROADCAST)
        assert found == []

    def test_every_expression_of_a_statement_is_checked(self):
        # a for loop's iterable comes after its target, an augmented
        # assignment's value after its target, a with item sits below a
        # withitem node: each crossed product must still be found
        found = lint("""
            import numpy as np

            def f(nx, ny, sink):
                total = np.zeros(1)
                for v in np.fft.fftfreq(nx) + np.fft.fftfreq(ny):
                    total += v
                total += np.fft.fftfreq(nx) * np.fft.fftfreq(ny)
                with sink(np.arange(nx) - np.arange(ny)):
                    pass
                return total
        """, BROADCAST)
        assert [(f.rule, f.line) for f in found] == [
            ("silent-broadcast", 6),
            ("silent-broadcast", 8),
            ("silent-broadcast", 9),
        ]

    def test_slicing_clears_the_tag(self):
        found = lint("""
            import numpy as np

            def f(nx, ny):
                xs = np.arange(nx)
                ys = np.arange(ny)
                return xs[: ny // 2] + ys[: ny // 2]
        """, BROADCAST)
        assert found == []


class TestForTargetRebinding:
    """A ``for`` target is rebound by the loop: after ``for x in
    range(n)``, ``x`` no longer names the array it held before."""

    def test_dtype_is_forgotten(self):
        # without the loop this is the float32-meets-float64 case
        found = lint("""
            import numpy as np

            def f(n):
                x = np.zeros(n, dtype=np.float32)
                for x in range(n):
                    pass
                return x + np.linspace(0.0, 1.0, n)
        """, DTYPE)
        assert found == []

    def test_axis_length_is_forgotten(self):
        # without the loop this is an nx-by-ny crossed product
        found = lint("""
            import numpy as np

            def f(nx, ny):
                x = np.fft.fftfreq(nx)
                for x in range(nx):
                    pass
                return x * np.fft.fftfreq(ny)
        """, BROADCAST)
        assert found == []


class TestLoopOverNdarray:
    PATH = "src/repro/metrology/mod.py"

    def test_direct_iteration(self):
        found = lint("""
            import numpy as np

            def f(values: np.ndarray):
                total = 0.0
                for v in values:
                    total += v
                return total
        """, LOOPS, path=self.PATH)
        assert [f.rule for f in found] == ["python-loop-over-ndarray"]

    def test_range_len_indexing(self):
        found = lint("""
            import numpy as np

            def f(values: np.ndarray):
                count = 0
                for k in range(len(values) - 1):
                    count += values[k]
                return count
        """, LOOPS, path=self.PATH)
        assert [f.rule for f in found] == ["python-loop-over-ndarray"]

    def test_comprehension_over_zip(self):
        found = lint("""
            import numpy as np

            def f(n):
                xs = np.linspace(0.0, 1.0, n)
                ys = np.arange(n)
                return [x * y for x, y in zip(xs, ys)]
        """, LOOPS, path=self.PATH)
        assert [f.rule for f in found] == ["python-loop-over-ndarray"]

    def test_plain_list_loop_is_clean(self):
        found = lint("""
            def f(values):
                total = 0.0
                for v in values:
                    total += v
                return total
        """, LOOPS, path=self.PATH)
        assert found == []

    def test_out_of_scope_module_is_exempt(self):
        found = lint("""
            import numpy as np

            def f(values: np.ndarray):
                total = 0.0
                for v in values:
                    total += v
                return total
        """, LOOPS, path="src/repro/litho/mod.py")
        assert found == []

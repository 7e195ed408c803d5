package tensor

// GEMM blocking parameters. The kernel packs b into kc×nc panels: one
// panel (mmKC·mmNC doubles = 256 KiB) sits in L2 while it is reused
// across every output row of the chunk, and the bound micro-kernel
// holds a tileRows × tileCols block of dst in registers across the
// whole k sweep of a panel (KERNELS.md §1).
const (
	mmKC = 256 // k extent of a packed b panel
	mmNC = 128 // j extent of a packed b panel
)

// MatMul returns a×b using the cache-blocked kernel, serially.
// Use K.MatMul to run the same kernel with a thread budget — the result
// is bit-identical either way.
func MatMul(a, b *Dense) *Dense { return K{}.MatMul(a, b) }

// MatMul returns a×b using the cache-blocked, panel-packed kernel,
// parallelized over contiguous output-row ranges.
func (k K) MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		shapePanic("MatMul", "inner dimensions must agree (a.Cols == b.Rows)",
			Dim("a", a.Rows, a.Cols), Dim("b", b.Rows, b.Cols))
	}
	out, dirty := DrawAccumulator(a.Rows, b.Cols)
	k.gemm(out, a, b, dirty)
	return out
}

// gemm runs gemmRows over contiguous chunks of dst's rows; with zero,
// each chunk clears its rows as it first reaches them, so dst may be
// dirty.
func (k K) gemm(dst, a, b *Dense, zero bool) {
	defer k.end(k.begin())
	n, kd, m := a.Rows, a.Cols, b.Cols
	if n == 0 || kd == 0 || m == 0 {
		if zero {
			clear(dst.Data)
		}
		return
	}
	k.parRange(n, grainFor(2*kd*m), func(lo, hi int) {
		gemmRows(dst, a, b, lo, hi, zero)
	})
}

// gemmRows computes dst[lo:hi) += a[lo:hi) × b, or with zero dst[lo:hi)
// = a[lo:hi) × b: then each block of dst is cleared right before the
// first panel accumulates into it, while its lines are about to be
// used, so the element still starts at +0. Panels of b are packed
// contiguously (a b no wider than one panel already is one and is used
// in place); each group of tileRows rows sweeps the panel in tileCols-
// column register tiles through the bound gemmTile, and a last group of
// half that height through gemmHalfTile where the binding has one. The
// w mod tileCols last columns of a panel take the same tile: they are
// packed beside columns of zeros, and the tile runs on a scratch block
// seeded from dst, of which only the valid columns are copied back. The
// rows no tile covers go through Axpy.
//
// Determinism note: for every output element (i, j) the additions
// happen in ascending k order — j panels are independent elements, and
// within a j panel the k panels ascend — every product is fused into
// its add, one rounding, and there is deliberately no skip of zero
// a-elements: a skipped `+= 0·b` is not a no-op for signed zeros, so
// any data-dependent shortcut could make results depend on which code
// path (register tile vs. remainder) an element lands in, which shifts
// with the chunk boundary. Every path performs the identical
// per-element operation sequence, so chunking cannot change bits.
func gemmRows(dst, a, b *Dense, lo, hi int, zero bool) {
	kd, m := a.Cols, b.Cols
	bd := bound
	tr, tc := bd.tileRows, bd.tileCols
	least := tr // the shortest row group a tile takes
	if bd.gemmHalfTile != nil {
		least = tr / 2
	}
	tiled := lo + (hi-lo)/least*least // rows [lo, tiled) go through register tiles
	var bp []float64
	if m > mmNC {
		bp, _ = draw(min(kd, mmKC) * mmNC)
		defer ReleaseFloats(bp)
	}
	var scratch, edge []float64 // the tr×tc block of dst the edge tile updates, and its zero-padded kc×tc panel
	if m%tc != 0 && tiled > lo {
		buf, dirty := draw((tr + min(kd, mmKC)) * tc)
		defer ReleaseFloats(buf)
		if dirty {
			clear(buf)
		}
		scratch, edge = buf[:tr*tc], buf[tr*tc:]
	}
	for j0 := 0; j0 < m; j0 += mmNC {
		j1 := min(j0+mmNC, m)
		w := j1 - j0
		wt := w / tc * tc
		for k0 := 0; k0 < kd; k0 += mmKC {
			k1 := min(k0+mmKC, kd)
			panel := b.Data[k0*m : k1*m]
			if bp != nil {
				panel = bp[:(k1-k0)*w]
				for kk := k0; kk < k1; kk++ {
					copy(panel[(kk-k0)*w:(kk-k0+1)*w], b.Data[kk*m+j0:kk*m+j1])
				}
			}
			if wt < w && edge != nil {
				for kk := 0; kk < k1-k0; kk++ {
					copy(edge[kk*tc:], panel[kk*w+wt:(kk+1)*w]) // columns w−wt..tc stay zero
				}
			}
			for i := lo; i < tiled; {
				h, tile := tr, bd.gemmTile
				if tiled-i < tr {
					h, tile = least, bd.gemmHalfTile
				}
				if zero && k0 == 0 {
					for r := 0; r < h; r++ {
						clear(dst.Data[(i+r)*m+j0 : (i+r)*m+j1])
					}
				}
				ai := a.Data[i*kd+k0:]
				for jj := 0; jj < wt; jj += tc {
					tile(dst.Data[i*m+j0+jj:], m, ai, kd, panel[jj:], w, k1-k0)
				}
				if wt < w {
					for r := 0; r < h; r++ {
						copy(scratch[r*tc:], dst.Data[(i+r)*m+j0+wt:(i+r)*m+j1])
					}
					tile(scratch, tc, ai, kd, edge, tc, k1-k0)
					for r := 0; r < h; r++ {
						copy(dst.Data[(i+r)*m+j0+wt:(i+r)*m+j1], scratch[r*tc:])
					}
				}
				i += h
			}
			// The rows no tile covers, at the panel's whole width.
			for r := tiled; r < hi; r++ {
				drow := dst.Data[r*m+j0 : r*m+j1]
				if zero && k0 == 0 {
					clear(drow)
				}
				for kk, av := range a.Data[r*kd+k0 : r*kd+k1] {
					Axpy(av, panel[kk*w:(kk+1)*w], drow)
				}
			}
		}
	}
}

// Add returns a+b, element-partitioned across the context's threads.
func (k K) Add(a, b *Dense) *Dense {
	return k.zipNew("Add", a, b, func(od, ad, bd []float64) {
		od, bd = od[:len(ad)], bd[:len(ad)]
		for i, x := range ad {
			od[i] = x + bd[i]
		}
	})
}

// Sub returns a−b, element-partitioned across the context's threads.
func (k K) Sub(a, b *Dense) *Dense {
	return k.zipNew("Sub", a, b, func(od, ad, bd []float64) {
		od, bd = od[:len(ad)], bd[:len(ad)]
		for i, x := range ad {
			od[i] = x - bd[i]
		}
	})
}

// Hadamard returns a∘b, element-partitioned across the context's threads.
func (k K) Hadamard(a, b *Dense) *Dense {
	return k.zipNew("Hadamard", a, b, func(od, ad, bd []float64) {
		od, bd = od[:len(ad)], bd[:len(ad)]
		for i, x := range ad {
			od[i] = x * bd[i]
		}
	})
}

// AddInPlace computes a += b, element-partitioned across the context's
// threads.
func (k K) AddInPlace(a, b *Dense) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		shapePanic("AddInPlace", "operands must have equal shapes",
			Dim("a", a.Rows, a.Cols), Dim("b", b.Rows, b.Cols))
	}
	defer k.end(k.begin())
	k.parRange(len(a.Data), grainFor(1), func(lo, hi int) {
		ad, bd := a.Data[lo:hi], b.Data[lo:hi]
		for i := range ad {
			ad[i] += bd[i]
		}
	})
}

// zipNew draws the elementwise combination of a and b that loop writes
// whole: loop is called once per chunk with equally long slices of the
// output and the two operands, so an element costs one iteration of a
// plain loop, not a call (each loop reslices to len(ad) to tell the
// compiler so, and pays no bounds check). Elements are independent, so
// any flat partition is bit-identical to serial.
func (k K) zipNew(name string, a, b *Dense, loop func(od, ad, bd []float64)) *Dense {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		shapePanic(name, "operands must have equal shapes",
			Dim("a", a.Rows, a.Cols), Dim("b", b.Rows, b.Cols))
	}
	defer k.end(k.begin())
	out := Draw(a.Rows, a.Cols)
	k.parRange(len(a.Data), grainFor(1), func(lo, hi int) {
		loop(out.Data[lo:hi], a.Data[lo:hi], b.Data[lo:hi])
	})
	return out
}

// Transpose returns aᵀ, partitioned over output rows (input columns);
// each chunk writes a disjoint slab of the output.
func (k K) Transpose(a *Dense) *Dense {
	defer k.end(k.begin())
	out := Draw(a.Cols, a.Rows)
	const bs = 32
	k.parRange(a.Cols, grainFor(a.Rows), func(lo, hi int) {
		for i0 := 0; i0 < a.Rows; i0 += bs {
			i1 := min(i0+bs, a.Rows)
			for j0 := lo; j0 < hi; j0 += bs {
				j1 := min(j0+bs, hi)
				for i := i0; i < i1; i++ {
					for j := j0; j < j1; j++ {
						out.Data[j*a.Rows+i] = a.Data[i*a.Cols+j]
					}
				}
			}
		}
	})
	return out
}

// Scale returns s·a, element-partitioned across the context's threads.
func (k K) Scale(a *Dense, s float64) *Dense {
	defer k.end(k.begin())
	out := Draw(a.Rows, a.Cols)
	k.parRange(len(a.Data), grainFor(1), func(lo, hi int) {
		ad, od := a.Data[lo:hi], out.Data[lo:hi]
		for i, v := range ad {
			od[i] = s * v
		}
	})
	return out
}

// RowSums returns the Rows×1 vector of row sums, row-partitioned; each
// row's sum accumulates left to right exactly as in the serial kernel.
func (k K) RowSums(a *Dense) *Dense {
	defer k.end(k.begin())
	out := Draw(a.Rows, 1)
	k.parRange(a.Rows, grainFor(a.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float64
			for _, v := range a.Data[i*a.Cols : (i+1)*a.Cols] {
				s += v
			}
			out.Data[i] = s
		}
	})
	return out
}

// ColSums returns the 1×Cols vector of column sums, partitioned over
// columns: every chunk owns a disjoint set of accumulators and adds
// rows in ascending order, matching the serial kernel bit for bit.
func (k K) ColSums(a *Dense) *Dense {
	defer k.end(k.begin())
	out := NewDense(1, a.Cols)
	k.parRange(a.Cols, grainFor(a.Rows), func(lo, hi int) {
		for i := 0; i < a.Rows; i++ {
			row := a.Data[i*a.Cols : (i+1)*a.Cols]
			for j := lo; j < hi; j++ {
				out.Data[j] += row[j]
			}
		}
	})
	return out
}

// AddBias returns a with the 1×Cols bias row added to every row,
// row-partitioned across the context's threads.
func (k K) AddBias(a, bias *Dense) *Dense {
	if bias.Rows != 1 || bias.Cols != a.Cols {
		shapePanic("AddBias", "bias must be 1×a.Cols",
			Dim("a", a.Rows, a.Cols), Dim("bias", bias.Rows, bias.Cols))
	}
	defer k.end(k.begin())
	out := Draw(a.Rows, a.Cols)
	k.parRange(a.Rows, grainFor(a.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*a.Cols : (i+1)*a.Cols]
			for j, v := range row {
				orow[j] = v + bias.Data[j]
			}
		}
	})
	return out
}

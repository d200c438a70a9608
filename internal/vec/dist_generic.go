//go:build !amd64 || race

package vec

// Portable bodies of the distance kernels, for every GOARCH without
// dist_amd64.s and for race-detector builds on amd64 (the detector sees
// what these loops read and write, not what the assembly does): the
// four-stripe loops dist.go describes.

func dot(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	b = b[:n] // eliminate bounds checks in the loop body
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
	}
	for ; i < n; i++ {
		s0 += a[i] * b[i]
	}
	return s0 + s1 + s2 + s3
}

func l2Sqr(a, b []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := a[i] - b[i]
		d1 := a[i+1] - b[i+1]
		d2 := a[i+2] - b[i+2]
		d3 := a[i+3] - b[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

func l2SqrBound(a, b []float32, bound float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(a)
	b = b[:n]
	i := 0
	for i+4 <= n {
		stop := i + abandonBlock
		if stop+4 > n {
			stop = n
		}
		for ; i+4 <= stop; i += 4 {
			d0 := a[i] - b[i]
			d1 := a[i+1] - b[i+1]
			d2 := a[i+2] - b[i+2]
			d3 := a[i+3] - b[i+3]
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if s := s0 + s1 + s2 + s3; s >= bound {
			return s
		}
	}
	for ; i < n; i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

func dotMixed(a []float64, b []float32) float64 {
	var s0, s1, s2, s3 float64
	n := len(a)
	b = b[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += a[i] * float64(b[i])
		s1 += a[i+1] * float64(b[i+1])
		s2 += a[i+2] * float64(b[i+2])
		s3 += a[i+3] * float64(b[i+3])
	}
	for ; i < n; i++ {
		s0 += a[i] * float64(b[i])
	}
	return s0 + s1 + s2 + s3
}

func dotMixedN(cs [][]float64, x []float32, out []float64) {
	for i, c := range cs {
		out[i] = dotMixed(c, x)
	}
}

func addWidened(dst []float64, x []float32) {
	x = x[:len(dst)]
	for j, v := range x {
		dst[j] += float64(v)
	}
}

func moveComposite(cu, cv []float64, x []float32) {
	cu, cv = cu[:len(x)], cv[:len(x)]
	for j, v := range x {
		w := float64(v)
		cu[j] -= w
		cv[j] += w
	}
}

func l2Sqr2(x, a, b []float32) (float32, float32) {
	return l2Sqr(x, a), l2Sqr(x, b)
}

func l2SqrU8(a, b []uint8) int32 {
	var s0, s1, s2, s3 int32
	n := len(a)
	b = b[:n] // eliminate bounds checks in the loop body
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := int32(a[i]) - int32(b[i])
		d1 := int32(a[i+1]) - int32(b[i+1])
		d2 := int32(a[i+2]) - int32(b[i+2])
		d3 := int32(a[i+3]) - int32(b[i+3])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := int32(a[i]) - int32(b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

func l2SqrBoundU8(a, b []uint8, bound int32) int32 {
	var s0, s1, s2, s3 int32
	n := len(a)
	b = b[:n]
	i := 0
	for i+4 <= n {
		stop := i + abandonBlock
		if stop+4 > n {
			stop = n
		}
		for ; i+4 <= stop; i += 4 {
			d0 := int32(a[i]) - int32(b[i])
			d1 := int32(a[i+1]) - int32(b[i+1])
			d2 := int32(a[i+2]) - int32(b[i+2])
			d3 := int32(a[i+3]) - int32(b[i+3])
			s0 += d0 * d0
			s1 += d1 * d1
			s2 += d2 * d2
			s3 += d3 * d3
		}
		if s := s0 + s1 + s2 + s3; s >= bound {
			return s
		}
	}
	for ; i < n; i++ {
		d := int32(a[i]) - int32(b[i])
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

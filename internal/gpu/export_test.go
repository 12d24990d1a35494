package gpu

// DecodedKernels reports how many kernels g holds a decoded program for.
func DecodedKernels(g *GPU) int { return len(g.progs) }

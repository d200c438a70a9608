// Command gkmeans clusters a dataset from the command line with the
// GK-means pipeline and optionally saves the labels, centroids, k-NN graph
// or the whole search-ready index. Ctrl-C cancels a run cleanly between
// graph rounds / optimisation epochs.
//
// Input is either an fvecs or bvecs file (-data, dispatching on the
// extension) or a named synthetic corpus (-synth sift|gist|glove|vlad with
// -n). With -shards N the tool skips clustering and instead builds a
// sharded search index (N independently built sub-indexes, searched by
// fan-out; see gkmeans.WithShards), which requires -index; -routing K adds
// per-shard routing centroids so searches can probe only the nearest
// shards (gkmeans.WithRouting). Examples:
//
//	gkmeans -synth sift -n 10000 -k 500
//	gkmeans -data sift1m.fvecs -k 10000 -labels out.ivecs -centroids c.fvecs
//	gkmeans -synth sift -n 50000 -k 1000 -index sift.gkx -progress
//	gkmeans -data sift1m.bvecs -shards 8 -index sift-sharded.gkx
//	gkmeans -synth sift -n 50000 -shards 8 -routing 32 -index sift-routed.gkx
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"gkmeans"
	"gkmeans/internal/dataset"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := realMain(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gkmeans:", err)
		os.Exit(1)
	}
}

func realMain(ctx context.Context, args []string) error {
	var (
		dataPath, synth                         string
		n, k, kappa, xi, tau, maxIter           int
		seed                                    int64
		trad, progress                          bool
		labelsOut, centsOut, graphOut, indexOut string
		shards, routing                         int
	)
	fs := flag.NewFlagSet("gkmeans", flag.ExitOnError)
	fs.StringVar(&dataPath, "data", "", "fvecs or bvecs input file (alternative to -synth)")
	fs.StringVar(&synth, "synth", "", "synthetic corpus: sift, gist, glove or vlad")
	fs.IntVar(&n, "n", 10000, "number of samples (synthetic input or fvecs cap)")
	fs.IntVar(&k, "k", 1000, "number of clusters")
	fs.IntVar(&kappa, "kappa", 50, "graph neighbours per sample (κ)")
	fs.IntVar(&xi, "xi", 50, "refinement cluster size (ξ)")
	fs.IntVar(&tau, "tau", 10, "graph construction rounds (τ)")
	fs.IntVar(&maxIter, "iter", 50, "maximum optimisation epochs")
	fs.Int64Var(&seed, "seed", 1, "RNG seed")
	fs.BoolVar(&trad, "traditional", false, "use the GK-means− (nearest centroid) variant")
	fs.BoolVar(&progress, "progress", false, "print per-stage progress")
	fs.StringVar(&labelsOut, "labels", "", "write labels to this ivecs file")
	fs.StringVar(&centsOut, "centroids", "", "write centroids to this fvecs file")
	fs.StringVar(&graphOut, "graph", "", "write the k-NN graph to this file")
	fs.StringVar(&indexOut, "index", "", "write the whole search-ready index to this file")
	fs.IntVar(&shards, "shards", 0, "build a sharded search index instead of clustering (requires -index)")
	fs.IntVar(&routing, "routing", 0, "routing centroids per shard (requires -shards; searches can then probe only the nearest shards)")
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with usage instead of returning

	if shards > 1 {
		switch {
		case indexOut == "":
			return fmt.Errorf("-shards needs -index: a sharded build produces a search index, nothing else")
		case labelsOut != "" || centsOut != "" || graphOut != "":
			return fmt.Errorf("-shards cannot emit labels, centroids or a single graph (sharded indexes have no global clustering or graph)")
		}
	} else {
		if routing > 0 {
			return fmt.Errorf("-routing needs -shards: routing centroids direct the sharded fan-out")
		}
		if k <= 0 {
			return fmt.Errorf("-k must be positive, got %d", k)
		}
	}
	var data *gkmeans.Matrix
	switch {
	case dataPath != "":
		var err error
		data, err = gkmeans.LoadVectors(dataPath, n)
		if err != nil {
			return fmt.Errorf("loading %s: %w", dataPath, err)
		}
	case synth != "":
		info, err := dataset.ByName(synth)
		if err != nil {
			return err
		}
		data = info.Gen(n, seed)
	default:
		return fmt.Errorf("one of -data or -synth is required")
	}
	fmt.Printf("data: %d × %d\n", data.N, data.Dim)

	opts := []gkmeans.Option{
		gkmeans.WithKappa(kappa), gkmeans.WithXi(xi), gkmeans.WithTau(tau),
		gkmeans.WithMaxIter(maxIter), gkmeans.WithSeed(seed),
	}
	if shards > 1 {
		opts = append(opts, gkmeans.WithShards(shards))
		if routing > 0 {
			opts = append(opts, gkmeans.WithRouting(routing))
		}
	} else {
		opts = append(opts, gkmeans.WithClusters(k))
	}
	if trad {
		opts = append(opts, gkmeans.WithTraditional())
	}
	var openLine bool
	if progress {
		opts = append(opts, gkmeans.WithProgress(func(stage string, done, total int) {
			fmt.Printf("\r  %-8s %d/%d", stage, done, total)
			openLine = done != total
			if !openLine {
				fmt.Println()
			}
		}))
	}

	start := time.Now()
	idx, err := gkmeans.Build(ctx, data, opts...)
	if openLine {
		fmt.Println() // a stage ended early (e.g. clustering converged)
	}
	if err != nil {
		return err
	}
	if shards > 1 {
		routed := ""
		if idx.Routed() {
			routed = fmt.Sprintf(", %d routing centroids/shard", idx.RoutingCentroids())
		}
		fmt.Printf("built %d-shard index in %v (graph time %v%s)\n",
			idx.Shards(), time.Since(start).Round(time.Millisecond),
			idx.GraphTime().Round(time.Millisecond), routed)
		if err := gkmeans.SaveIndex(indexOut, idx); err != nil {
			return err
		}
		fmt.Println("index written to", indexOut)
		return nil
	}
	res := idx.Clusters()
	fmt.Printf("clustered into %d clusters in %v\n", k, time.Since(start).Round(time.Millisecond))
	fmt.Printf("  graph: %v   init: %v   iterations: %v (%d epochs)\n",
		idx.GraphTime().Round(time.Millisecond), res.InitTime.Round(time.Millisecond),
		res.IterTime.Round(time.Millisecond), res.Iters)
	fmt.Printf("  average distortion: %.4f\n", res.Distortion(data))
	fmt.Printf("  avg candidate clusters per sample: %.1f (k = %d)\n", res.AvgCandidates, k)

	if labelsOut != "" {
		if err := writeLabels(labelsOut, res.Labels); err != nil {
			return err
		}
		fmt.Println("labels written to", labelsOut)
	}
	if centsOut != "" {
		if err := gkmeans.SaveFvecs(centsOut, res.Centroids); err != nil {
			return err
		}
		fmt.Println("centroids written to", centsOut)
	}
	if graphOut != "" {
		if err := idx.Graph().SaveFile(graphOut); err != nil {
			return err
		}
		fmt.Println("graph written to", graphOut)
	}
	if indexOut != "" {
		if err := gkmeans.SaveIndex(indexOut, idx); err != nil {
			return err
		}
		fmt.Println("index written to", indexOut)
	}
	return nil
}

// writeLabels stores the labels as a single ivecs record.
func writeLabels(path string, labels []int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	row := make([]int32, len(labels))
	for i, l := range labels {
		row[i] = int32(l)
	}
	if err := dataset.WriteIvecs(f, [][]int32{row}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

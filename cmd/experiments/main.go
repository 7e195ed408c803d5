// Command experiments regenerates every table and figure of the paper's
// evaluation section (§8) and prints the same rows. See EXPERIMENTS.md
// for the recorded paper-vs-measured comparison. Ctrl-C (SIGINT) or
// SIGTERM stops the run after the figure in flight.
//
//	experiments [-fig N] [-brute-budget 30s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"syscall"
	"time"

	"matopt/internal/figures"
)

func main() {
	fig := flag.String("fig", "", "regenerate one figure (1, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13); default all")
	budget := flag.Duration("brute-budget", 30*time.Second,
		"time budget per brute-force run in Figure 13 (the paper used 30m)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	run := map[string]func() figures.Table{
		"1": figures.Fig1, "4": figures.Fig4, "5": figures.Fig5,
		"6": figures.Fig6, "7": figures.Fig7, "8": figures.Fig8,
		"9": figures.Fig9, "10": figures.Fig10, "11": figures.Fig11,
		"12": figures.Fig12,
		"13": func() figures.Table { return figures.Fig13(*budget) },
	}
	if *fig != "" {
		f, ok := run[*fig]
		if !ok {
			log.Fatalf("unknown figure %q", *fig)
		}
		fmt.Println(f())
		return
	}
	tables, err := figures.AllCtx(ctx, *budget)
	for _, t := range tables {
		fmt.Println(t)
	}
	if err != nil {
		log.Fatalf("interrupted after %d figures: %v", len(tables), err)
	}
}

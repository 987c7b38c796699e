// Command spatialgen generates the evaluation datasets of the paper
// (sp_skew, sz_skew, adl, ca_road) and writes them in the library's binary
// format, optionally printing the Figure 12-style distribution summary.
//
// Usage:
//
//	spatialgen -dataset sz_skew -n 1000000 -seed 2002 -out sz_skew.bin
//	spatialgen -dataset adl -n 100000 -summary
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"spatialhist/internal/dataset"
)

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	var usage usageError
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.As(err, &usage):
		os.Exit(2) // the flag package has printed the error and the usage
	default:
		fmt.Fprintln(os.Stderr, "spatialgen:", err)
		os.Exit(1)
	}
}

// usageError is a command line the flag package refused.
type usageError struct{ error }

func (e usageError) Unwrap() error { return e.error }

// run generates the dataset args name and writes what they ask for,
// reporting progress to stdout and flag errors and usage to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("spatialgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("dataset", "sp_skew", "dataset to generate: "+strings.Join(dataset.Names(), ", "))
		n       = fs.Int("n", 100_000, "number of objects (0 = the paper's size for this dataset)")
		seed    = fs.Int64("seed", 2002, "generator seed")
		out     = fs.String("out", "", "output file (omit to skip writing)")
		outCSV  = fs.String("csv", "", "also write the dataset as x1,y1,x2,y2 CSV")
		summary = fs.Bool("summary", false, "print the distribution summary and center plot")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return usageError{err}
	}

	if *n == 0 {
		*n = dataset.PaperSize(*name)
	}
	d, err := dataset.Generate(*name, *n, *seed)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, d)

	if *summary {
		fmt.Fprint(stdout, dataset.Summarize(d))
		fmt.Fprintln(stdout, "center distribution:")
		fmt.Fprint(stdout, dataset.RenderCenterGrid(dataset.CenterGrid(d, 72, 18)))
	}
	if *out != "" {
		if err := d.Save(*out); err != nil {
			return err
		}
		if err := report(stdout, *out); err != nil {
			return err
		}
	}
	if *outCSV != "" {
		f, err := os.Create(*outCSV)
		if err != nil {
			return err
		}
		err = d.WriteCSV(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		if err := report(stdout, *outCSV); err != nil {
			return err
		}
	}
	return nil
}

func report(w io.Writer, path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s (%.1f MB)\n", path, float64(info.Size())/(1<<20))
	return nil
}

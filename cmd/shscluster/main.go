// Command shscluster applies a YAML manifest — the paper's Listings 1-3
// verbatim: vni:true jobs, VniClaims, claim-sharing jobs — to the simulated
// two-node deployment, kubectl-apply style, and reports each object's
// lifecycle once the declared jobs settle.
//
// Usage:
//
//	shscluster -f <manifest> [-seed 1]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"github.com/caps-sim/shs-k8s/internal/k8s"
	"github.com/caps-sim/shs-k8s/internal/manifest"
	"github.com/caps-sim/shs-k8s/internal/stack"
	"github.com/caps-sim/shs-k8s/internal/vniapi"
)

// config captures the command line.
type config struct {
	Seed int64
	File string
}

// parseFlags parses the command line into a config.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("shscluster", flag.ContinueOnError)
	cfg := config{}
	fs.Int64Var(&cfg.Seed, "seed", 1, "RNG seed")
	fs.StringVar(&cfg.File, "f", "", "YAML manifest to submit (required; see internal/manifest for the subset)")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if cfg.File == "" {
		err := errors.New("-f <manifest> is required")
		fmt.Fprintln(fs.Output(), err)
		fs.Usage()
		return config{}, err
	}
	return cfg, nil
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	if err := run(os.Stdout, cfg); err != nil {
		log.Fatalf("shscluster: %v", err)
	}
}

// run assembles the stack, submits the objects the manifest declares and
// reports on their lifecycle, kubectl-apply style.
func run(w io.Writer, cfg config) error {
	f, err := os.Open(cfg.File)
	if err != nil {
		return err
	}
	defer f.Close()
	objs, err := manifest.Parse(f)
	if err != nil {
		return err
	}
	opts := stack.DefaultOptions()
	opts.Seed = cfg.Seed
	st := stack.New(opts)
	namespaces := map[string]bool{}
	for _, obj := range objs {
		ns := obj.GetMeta().Namespace
		if !namespaces[ns] {
			namespaces[ns] = true
			st.Cluster.CreateNamespace(ns)
		}
	}
	st.Eng.RunFor(time.Second)
	for _, obj := range objs {
		m := obj.GetMeta()
		err := errors.New("no answer within a second")
		st.Cluster.Client.Create(obj, k8s.WroteFunc(func(e error) { err = e }))
		st.Eng.RunFor(time.Second)
		if err != nil {
			return fmt.Errorf("creating %s %s: %w", m.Kind, m.Key(), err)
		}
		fmt.Fprintf(w, "%s/%s created\n", m.Kind, m.Name)
	}
	// Watch until declared jobs settle.
	for tick := 0; tick < 30; tick++ {
		st.Eng.RunFor(2 * time.Second)
		done := true
		for _, obj := range objs {
			if obj.GetMeta().Kind != k8s.KindJob {
				continue
			}
			m := obj.GetMeta()
			if job, ok := st.Cluster.Job(m.Namespace, m.Name); ok && !job.Status.Completed {
				done = false
			}
		}
		if done {
			break
		}
	}
	for _, obj := range objs {
		m := obj.GetMeta()
		switch m.Kind {
		case k8s.KindJob:
			if job, ok := st.Cluster.Job(m.Namespace, m.Name); ok {
				fmt.Fprintf(w, "job %s: completed=%v succeeded=%d\n", m.Name, job.Status.Completed, job.Status.Succeeded)
			} else {
				fmt.Fprintf(w, "job %s: deleted (ttl)\n", m.Name)
			}
		case vniapi.KindVniClaim:
			fmt.Fprintf(w, "vniclaim %s: present\n", m.Name)
		}
	}
	for _, obj := range st.Cluster.Client.Lister(vniapi.KindVNI).List("") {
		cr := obj.(*k8s.Custom)
		fmt.Fprintf(w, "vni CRD %s: vni=%s job=%s\n", cr.Meta.Name, cr.Spec[vniapi.SpecVNI], cr.Spec[vniapi.SpecJob])
	}
	return nil
}

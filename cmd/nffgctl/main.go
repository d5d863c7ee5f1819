// Command nffgctl is the REST client for the un-orchestrator daemon: it
// deploys, retrieves, lists and deletes Network Function Forwarding Graphs.
//
// Usage:
//
//	nffgctl [-server http://localhost:8080] deploy [-dry-run] <graph.json>
//	nffgctl [-server ...] get <graph-id>
//	nffgctl [-server ...] delete <graph-id>
//	nffgctl [-server ...] list
//	nffgctl [-server ...] status
//
// nffgctl speaks the versioned /v1 API surface. With -dry-run, deploy
// validates and admission-checks the graph on the server (replicas and
// standby, none for a shared-NNF join, running NFs as they run) and
// prints the would-be placement without mutating anything.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"

	"repro/internal/cliutil"
	"repro/internal/nffg"
)

// client retries transient failures with backoff and follows HA leader
// redirects, so nffgctl works against any replica of a clustered
// un-global (or across a brief failover).
var client = cliutil.New()

func main() {
	server := flag.String("server", "http://localhost:8080", "un-orchestrator base URL")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "deploy":
		fs := flag.NewFlagSet("deploy", flag.ExitOnError)
		dryRun := fs.Bool("dry-run", false, "validate and plan on the server without deploying")
		_ = fs.Parse(args[1:])
		if fs.NArg() != 1 {
			usage()
			os.Exit(2)
		}
		err = deploy(*server, fs.Arg(0), *dryRun)
	case "get":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		err = get(*server+"/v1/graphs/"+args[1], true)
	case "delete":
		if len(args) != 2 {
			usage()
			os.Exit(2)
		}
		err = del(*server + "/v1/graphs/" + args[1])
	case "list":
		err = get(*server+"/v1/graphs", false)
	case "status":
		err = get(*server+"/v1/status", false)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "nffgctl: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: nffgctl [-server URL] <command>

commands:
  deploy [-dry-run] <graph.json>
                        PUT the NF-FG in the file (id read from the graph);
                        -dry-run plans placement without deploying
  get <graph-id>        print a deployed graph
  delete <graph-id>     undeploy a graph
  list                  list deployed graph ids
  status                print node status
`)
}

func deploy(server, path string, dryRun bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// Validate locally first for a friendlier error.
	var g nffg.Graph
	if err := json.Unmarshal(data, &g); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	if err := g.Validate(); err != nil {
		return err
	}
	url := server + "/v1/graphs/" + g.ID
	if dryRun {
		url += "?dry-run=true"
	}
	resp, err := client.Put(url, data)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return report(resp)
}

func get(url string, pretty bool) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return report(resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if pretty {
		var buf bytes.Buffer
		if err := json.Indent(&buf, body, "", "  "); err == nil {
			body = buf.Bytes()
		}
	}
	fmt.Printf("%s\n", bytes.TrimSpace(body))
	return nil
}

func del(url string) error {
	resp, err := client.Delete(url, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return report(resp)
}

func report(resp *http.Response) error {
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 400 {
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	fmt.Printf("%s\n", bytes.TrimSpace(body))
	return nil
}

// Java taint analysis without Android (the RQ4 use case): FlowDroid's
// engine applied to a plain servlet-style program with hand-written
// source/sink rules, the way the paper evaluates SecuriBench Micro.
//
// The example also shows the two extension points a downstream user
// typically needs: custom source/sink rules in the textual format, and
// additional taint-wrapper shortcut rules for a library the engine should
// not analyze.
//
// Run with: go run ./examples/javataint
package main

import (
	"context"
	"fmt"
	"log"

	"flowdroid/internal/core"
	"flowdroid/internal/ir"
	"flowdroid/internal/taint"
)

const program = `
// A tiny "framework" the engine treats as a black box.
class acme.KeyValueStore {
  method put(k: java.lang.String, v: java.lang.String): void;
  method get(k: java.lang.String): java.lang.String;
}

class acme.Request {
  method body(): java.lang.String;
}
class acme.Response {
  method send(payload: java.lang.String): void;
}

class acme.Handler {
  method init(): void {
    return
  }
  method handle(req: acme.Request, resp: acme.Response): void {
    data = req.body()
    store = new acme.KeyValueStore()
    store.put("session", data)
    out = store.get("session")
    resp.send(out)
    safe = "static response"
    resp.send(safe)
    return
  }
}
class acme.Main {
  static method main(): void {
    h = new acme.Handler()
    local rq: acme.Request
    rq = new acme.Request
    local rs: acme.Response
    rs = new acme.Response
    h.handle(rq, rs)
    return
  }
}
`

// Custom endpoint rules: request bodies are tainted, responses leak.
const rules = `
source <acme.Request: body/0> -> return label request-body
sink <acme.Response: send/1> -> arg0 label response
`

// Shortcut rules teach the engine the key-value store's semantics instead
// of analyzing (absent) library code: putting taints the store, getting
// returns its taint.
const wrapperRules = `
wrap <acme.KeyValueStore: put/2> arg1 -> base
wrap <acme.KeyValueStore: get/1> base -> return
`

func main() {
	prog, err := core.ParseJava(program, "acme.ir")
	if err != nil {
		log.Fatal(err)
	}

	opts := core.DefaultOptions()
	opts.SourceSinkRules = rules
	extra, err := taint.ParseWrapper(wrapperRules)
	if err != nil {
		log.Fatal(err)
	}
	opts.Taint.Wrapper = taint.MergeWrappers(opts.Taint.Wrapper, extra)

	entries := []*ir.Method{prog.Class("acme.Main").Method("main", 0)}
	res, err := core.AnalyzeProgram(context.Background(), prog, entries, opts)
	if err != nil {
		log.Fatal(err)
	}

	leaks := res.Leaks()
	fmt.Printf("%d leak(s):\n", len(leaks))
	for _, l := range leaks {
		fmt.Printf("    %s\n", l)
	}
	fmt.Println("\nthe flow survives the key-value store round trip thanks to the")
	fmt.Println("custom wrapper rules; the constant response is not reported.")
}

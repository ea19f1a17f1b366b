.PHONY: all test bench examples clean outputs

all:
	dune build @all

test:
	dune runtest

bench:
	dune exec bench/main.exe

examples:
	@for e in quickstart transpose_kernel mixed_precision conversion_explorer \
	          attention_engine layout_gallery reduction_codegen; do \
	  echo "== $$e =="; dune exec examples/$$e.exe || exit 1; done

outputs:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

clean:
	dune clean

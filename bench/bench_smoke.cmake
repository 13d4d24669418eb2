# Runs a figure bench at tiny scale (SILC_INSTR=20000, SILC_CORES=2) at
# SILC_THREADS=1 and SILC_THREADS=4 (experiment-level job parallelism)
# and fails unless the stdout tables are byte-identical — the
# determinism contract of the parallel harness, over the whole
# registry-driven scheme x workload matrix.  With -DSAMPLE=ON the bench
# runs with --sample, at a sampling period that leaves each run a few
# windows.  Invoked by ctest via
#   cmake -DBENCH=<bench binary> -DWORKDIR=<scratch dir> [-DSAMPLE=ON]
#         -P bench_smoke.cmake

get_filename_component(name ${BENCH} NAME)
set(env SILC_INSTR=20000 SILC_CORES=2)
set(args)
if(SAMPLE)
    list(APPEND env SILC_SAMPLE_PERIOD=5000 SILC_SAMPLE_WINDOW=1000
                    SILC_SAMPLE_WARMUP=1000)
    set(args --sample)
    set(name ${name}_sample)
endif()

set(outputs)
foreach(threads 1 4)
    set(out ${WORKDIR}/bench_smoke_${name}_t${threads}.out)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env ${env} SILC_THREADS=${threads}
                ${BENCH} ${args}
        OUTPUT_FILE ${out}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "${name} failed (rc=${rc}) with SILC_THREADS=${threads}")
    endif()
    list(APPEND outputs ${out})
endforeach()

list(GET outputs 0 reference)
foreach(out ${outputs})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${reference} ${out}
        RESULT_VARIABLE diff_rc)
    if(NOT diff_rc EQUAL 0)
        message(FATAL_ERROR
                "${name} output differs across SILC_THREADS: "
                "compare ${reference} against ${out}")
    endif()
endforeach()

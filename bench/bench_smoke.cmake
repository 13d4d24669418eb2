# Runs the fig7_comparison bench at tiny scale (SILC_INSTR=20000,
# SILC_CORES=2) at SILC_THREADS=1 and SILC_THREADS=4 (experiment-level
# job parallelism) and fails unless the stdout tables are byte-identical
# — the determinism contract of the parallel harness, over the whole
# registry-driven scheme x workload matrix.  Invoked by ctest via
#   cmake -DBENCH=<fig7 binary> -DWORKDIR=<scratch dir> -P bench_smoke.cmake

set(outputs)
foreach(threads 1 4)
    set(out ${WORKDIR}/bench_smoke_t${threads}.out)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env
                SILC_INSTR=20000 SILC_CORES=2 SILC_THREADS=${threads}
                ${BENCH}
        OUTPUT_FILE ${out}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
                "fig7_comparison failed (rc=${rc}) with "
                "SILC_THREADS=${threads}")
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
                "fig7_comparison output differs across SILC_THREADS: "
                "compare ${reference} against ${out}")
    endif()
endforeach()
